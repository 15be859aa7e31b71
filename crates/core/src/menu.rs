//! Hierarchical menus and the navigation cursor.
//!
//! DistScroll "navigates data structures or browses menus using only
//! one hand" (paper, abstract): the distance dimension scrolls within one
//! level of the hierarchy, the top-right button selects (entering a
//! submenu or activating a leaf), and a second button moves back up —
//! the interaction the TUISTER splits across two hands, done with one.
//!
//! [`Menu`] is the immutable tree; [`Navigator`] is the mutable cursor
//! the firmware drives. Keeping them separate lets many simulated
//! sessions share one tree.

use crate::CoreError;

/// A node of the menu tree: either a leaf entry or a submenu.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MenuNode {
    label: String,
    children: Vec<MenuNode>,
}

impl MenuNode {
    /// A leaf entry (an activatable item).
    pub fn leaf(label: impl Into<String>) -> Self {
        MenuNode {
            label: label.into(),
            children: Vec::new(),
        }
    }

    /// A submenu with children.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty — an empty submenu is a modelling
    /// error, not a runtime condition.
    pub fn submenu(label: impl Into<String>, children: Vec<MenuNode>) -> Self {
        assert!(
            !children.is_empty(),
            "a submenu must have at least one child"
        );
        MenuNode {
            label: label.into(),
            children,
        }
    }

    /// The entry's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether this is a leaf (activatable) entry.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// The node's children (empty for leaves).
    pub fn children(&self) -> &[MenuNode] {
        &self.children
    }

    /// Total number of leaves in the subtree.
    pub fn leaf_count(&self) -> usize {
        if self.is_leaf() {
            1
        } else {
            self.children.iter().map(MenuNode::leaf_count).sum()
        }
    }

    /// Depth of the subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(MenuNode::depth).max().unwrap_or(0)
    }
}

/// An immutable menu tree with a named root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Menu {
    root: MenuNode,
}

impl Menu {
    /// Wraps a root node into a menu.
    ///
    /// # Panics
    ///
    /// Panics if the root is a leaf — a menu must have entries.
    pub fn new(root: MenuNode) -> Self {
        assert!(!root.is_leaf(), "menu root must have entries");
        Menu { root }
    }

    /// A flat menu of `n` numbered entries — the workload shape the
    /// evaluation experiments sweep.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn flat(n: usize) -> Self {
        assert!(n > 0, "a menu needs at least one entry");
        Menu::new(MenuNode::submenu(
            "root",
            (0..n)
                .map(|i| MenuNode::leaf(format!("Item {i:02}")))
                .collect(),
        ))
    }

    /// The entry index behind a [`Menu::flat`] label (`"Item 07"` → 7);
    /// `None` for any other label.
    pub fn flat_index(label: &str) -> Option<usize> {
        label.strip_prefix("Item ")?.parse().ok()
    }

    /// The root node.
    pub fn root(&self) -> &MenuNode {
        &self.root
    }

    /// The node at a path of child indices, if it exists.
    pub fn node_at(&self, path: &[usize]) -> Option<&MenuNode> {
        let mut node = &self.root;
        for &i in path {
            node = node.children().get(i)?;
        }
        Some(node)
    }
}

/// What a select action did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// The highlighted entry was a submenu; the cursor entered it.
    EnteredSubmenu {
        /// Label of the submenu entered.
        label: String,
    },
    /// The highlighted entry was a leaf; it was activated.
    Activated {
        /// Labels from the root to the activated leaf.
        path: Vec<String>,
    },
}

impl Selection {
    /// The entry index of an activated [`Menu::flat`] leaf; `None` for
    /// a submenu entry or any other label.
    pub fn flat_index(&self) -> Option<usize> {
        match self {
            Selection::Activated { path } => Menu::flat_index(path.last()?),
            Selection::EnteredSubmenu { .. } => None,
        }
    }
}

/// The mutable cursor over a [`Menu`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Navigator {
    menu: Menu,
    path: Vec<usize>,
    highlighted: usize,
}

impl Navigator {
    /// A cursor at the first entry of the top level.
    pub fn new(menu: Menu) -> Self {
        Navigator {
            menu,
            path: Vec::new(),
            highlighted: 0,
        }
    }

    /// The menu being navigated.
    pub fn menu(&self) -> &Menu {
        &self.menu
    }

    /// The entries at the current level.
    #[expect(
        clippy::expect_used,
        reason = "the navigator only ever stores paths it has validated while descending"
    )]
    pub fn entries(&self) -> &[MenuNode] {
        self.menu
            .node_at(&self.path)
            .expect("navigator path is always valid")
            .children()
    }

    /// Number of entries at the current level.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// `true` if the current level has no entries (never happens for
    /// well-formed menus; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// The index of the highlighted entry at the current level.
    pub fn highlighted(&self) -> usize {
        self.highlighted
    }

    /// The highlighted entry.
    pub fn highlighted_entry(&self) -> &MenuNode {
        &self.entries()[self.highlighted]
    }

    /// Depth of the cursor (0 = top level).
    pub fn level(&self) -> usize {
        self.path.len()
    }

    /// Labels from the root down to (excluding) the current level.
    pub fn breadcrumb(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut node = self.menu.root();
        for &i in &self.path {
            node = &node.children()[i];
            out.push(node.label().to_string());
        }
        out
    }

    /// Moves the highlight to `index` (the scroll action).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadMenuIndex`] if `index` is out of range.
    pub fn highlight(&mut self, index: usize) -> Result<(), CoreError> {
        if index >= self.len() {
            return Err(CoreError::BadMenuIndex {
                index,
                len: self.len(),
            });
        }
        self.highlighted = index;
        Ok(())
    }

    /// Selects the highlighted entry: enters a submenu or activates a
    /// leaf.
    pub fn select(&mut self) -> Selection {
        let entry = self.highlighted_entry();
        if entry.is_leaf() {
            let mut path = self.breadcrumb();
            path.push(entry.label().to_string());
            Selection::Activated { path }
        } else {
            let label = entry.label().to_string();
            self.path.push(self.highlighted);
            self.highlighted = 0;
            Selection::EnteredSubmenu { label }
        }
    }

    /// Moves up one level; returns `false` (and stays) at the top.
    ///
    /// The highlight lands back on the submenu that was entered, the
    /// behaviour users expect from phone menus.
    pub fn back(&mut self) -> bool {
        match self.path.pop() {
            Some(came_from) => {
                self.highlighted = came_from;
                true
            }
            None => false,
        }
    }

    /// Resets to the first entry of the top level.
    pub fn reset(&mut self) {
        self.path.clear();
        self.highlighted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_inverts_flat_labels() {
        for n in [1, 12, 200] {
            let menu = Menu::flat(n);
            for (i, leaf) in menu.root().children().iter().enumerate() {
                assert_eq!(Menu::flat_index(leaf.label()), Some(i), "n = {n}");
                let path = vec![leaf.label().to_string()];
                assert_eq!(Selection::Activated { path }.flat_index(), Some(i));
            }
        }
        assert_eq!(Menu::flat_index("Back"), None);
        let label = "Item 03".to_string();
        assert_eq!(Selection::EnteredSubmenu { label }.flat_index(), None);
    }

    fn small_menu() -> Menu {
        Menu::new(MenuNode::submenu(
            "root",
            vec![
                MenuNode::submenu(
                    "Messages",
                    vec![MenuNode::leaf("Inbox"), MenuNode::leaf("Compose")],
                ),
                MenuNode::leaf("Contacts"),
                MenuNode::submenu("Settings", vec![MenuNode::leaf("Ring tone")]),
            ],
        ))
    }

    #[test]
    fn tree_statistics() {
        let m = small_menu();
        assert_eq!(m.root().leaf_count(), 4);
        assert_eq!(m.root().depth(), 3);
        assert_eq!(m.root().children().len(), 3);
    }

    #[test]
    fn node_at_follows_paths() {
        let m = small_menu();
        assert_eq!(m.node_at(&[]).unwrap().label(), "root");
        assert_eq!(m.node_at(&[0, 1]).unwrap().label(), "Compose");
        assert!(m.node_at(&[5]).is_none());
        assert!(m.node_at(&[1, 0]).is_none(), "leaves have no children");
    }

    #[test]
    fn flat_menu_has_n_leaves() {
        let m = Menu::flat(12);
        assert_eq!(m.root().children().len(), 12);
        assert!(m.root().children().iter().all(MenuNode::is_leaf));
    }

    #[test]
    fn highlight_validates_range() {
        let mut nav = Navigator::new(small_menu());
        assert!(nav.highlight(2).is_ok());
        assert_eq!(nav.highlighted(), 2);
        let err = nav.highlight(3).unwrap_err();
        assert_eq!(err, CoreError::BadMenuIndex { index: 3, len: 3 });
        assert_eq!(
            nav.highlighted(),
            2,
            "failed highlight must not move the cursor"
        );
    }

    #[test]
    fn select_enters_submenus_and_activates_leaves() {
        let mut nav = Navigator::new(small_menu());
        let sel = nav.select();
        assert_eq!(
            sel,
            Selection::EnteredSubmenu {
                label: "Messages".into()
            }
        );
        assert_eq!(nav.level(), 1);
        assert_eq!(nav.len(), 2);
        nav.highlight(1).unwrap();
        let sel = nav.select();
        assert_eq!(
            sel,
            Selection::Activated {
                path: vec!["Messages".into(), "Compose".into()]
            }
        );
        assert_eq!(nav.level(), 1, "activating a leaf does not move the cursor");
    }

    #[test]
    fn back_restores_the_parent_highlight() {
        let mut nav = Navigator::new(small_menu());
        nav.highlight(2).unwrap();
        nav.select(); // into Settings
        assert_eq!(nav.level(), 1);
        assert!(nav.back());
        assert_eq!(nav.level(), 0);
        assert_eq!(
            nav.highlighted(),
            2,
            "highlight lands on the submenu we came from"
        );
        assert!(!nav.back(), "cannot go above the top level");
    }

    #[test]
    fn breadcrumb_tracks_descent() {
        let mut nav = Navigator::new(small_menu());
        assert!(nav.breadcrumb().is_empty());
        nav.select();
        assert_eq!(nav.breadcrumb(), vec!["Messages".to_string()]);
    }

    #[test]
    fn reset_returns_to_top() {
        let mut nav = Navigator::new(small_menu());
        nav.select();
        nav.highlight(1).unwrap();
        nav.reset();
        assert_eq!(nav.level(), 0);
        assert_eq!(nav.highlighted(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one child")]
    fn empty_submenu_is_rejected() {
        let _ = MenuNode::submenu("broken", vec![]);
    }

    #[test]
    #[should_panic(expected = "menu root must have entries")]
    fn leaf_root_is_rejected() {
        let _ = Menu::new(MenuNode::leaf("alone"));
    }
}
