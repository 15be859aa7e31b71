//! Rendering menus and state onto the two displays.
//!
//! "In these first tests, we used the upper display of the DistScroll for
//! data and information portrayal. We simulated a fictive mobile phone
//! menu and used the second display to provide debug information"
//! (paper, Section 6). This module contains the pure formatting — a
//! 5-line menu window with a highlight marker and a one-column scrollbar
//! on the upper panel, and a status/debug view on the lower panel — and
//! the command encoding that ships the lines over I2C.
//!
//! Every view renders into a caller-owned `Vec<String>` whose buffers it
//! reuses, and [`redraw`] hands out the display commands from a stack
//! buffer, so once the buffers have warmed up a redraw allocates nothing.

use distscroll_hw::display::{cmd, TEXT_COLS, TEXT_LINES};

use crate::menu::MenuNode;

/// Resizes `out` to [`TEXT_LINES`] empty lines, keeping their capacity.
fn clear_lines(out: &mut Vec<String>) {
    out.resize_with(TEXT_LINES, String::new);
    for line in out.iter_mut() {
        line.clear();
    }
}

/// Renders one menu level into exactly [`TEXT_LINES`] strings of at most
/// [`TEXT_COLS`] characters: a `>` marker on the highlighted row, a
/// scroll window that keeps the highlight visible, and a right-hand
/// scrollbar column when the level does not fit.
pub fn render_menu_into(entries: &[MenuNode], highlighted: usize, out: &mut Vec<String>) {
    clear_lines(out);
    let n = entries.len();
    let visible = TEXT_LINES;
    // Window start: keep the highlight inside, bias to centre.
    let start = if n <= visible {
        0
    } else {
        highlighted.saturating_sub(visible / 2).min(n - visible)
    };
    let needs_bar = n > visible;
    let label_width = if needs_bar {
        TEXT_COLS - 2
    } else {
        TEXT_COLS - 1
    };
    for (row, line) in out.iter_mut().enumerate() {
        let idx = start + row;
        // Characters pushed so far; labels may hold multi-byte UTF-8.
        let mut chars = 0;
        if let Some(entry) = entries.get(idx) {
            line.push(if idx == highlighted { '>' } else { ' ' });
            chars = 1;
            for c in entry.label().chars().take(label_width) {
                line.push(c);
                chars += 1;
            }
        }
        if needs_bar {
            for _ in chars..TEXT_COLS - 1 {
                line.push(' ');
            }
            // Scrollbar thumb: the row proportional to the highlight.
            let thumb_row = if n <= 1 {
                0
            } else {
                highlighted * (visible - 1) / (n - 1)
            };
            line.push(if row == thumb_row { '#' } else { '|' });
        }
        line.truncate(line.trim_end().len());
    }
}

/// Status view for the lower (debug) display, mirroring what the authors
/// put there: the raw ADC code, the decoded distance, the selected
/// island, the menu level and the battery state.
pub fn render_status_into(
    adc_code: u16,
    distance_cm: Option<f64>,
    island: Option<usize>,
    level: usize,
    battery_soc: f64,
    out: &mut Vec<String>,
) {
    use std::fmt::Write as _;
    clear_lines(out);
    // Writing to a String cannot fail; errors are structurally impossible.
    let _ = write!(out[0], "adc {adc_code:>4}");
    match distance_cm {
        Some(cm) => {
            let _ = write!(out[1], "d   {cm:>5.1}cm");
        }
        None => out[1].push_str("d   --.-cm"),
    }
    match island {
        Some(i) => {
            let _ = write!(out[2], "isl {i}  lvl {level}");
        }
        None => {
            let _ = write!(out[2], "isl -  lvl {level}");
        }
    }
    let _ = write!(out[3], "bat {:>3.0}%", battery_soc * 100.0);
}

/// Study-instruction view for the lower display (§6): the task prompt,
/// word-wrapped to the 16-column panel, at most [`TEXT_LINES`] lines.
pub fn render_instruction_into(text: &str, out: &mut Vec<String>) {
    clear_lines(out);
    out[0].push_str("Find:");
    let mut row = 1;
    for word in text.split_whitespace() {
        let current = &mut out[row];
        let candidate_len = current.len() + usize::from(!current.is_empty()) + word.len();
        if candidate_len <= TEXT_COLS {
            if !current.is_empty() {
                current.push(' ');
            }
            current.push_str(word);
        } else {
            if !current.is_empty() {
                row += 1;
                if row == TEXT_LINES {
                    break;
                }
            }
            // Over-long single words are truncated, as the panel would.
            out[row].extend(word.chars().take(TEXT_COLS));
        }
    }
}

/// Sends a full-screen redraw of `lines` as display commands (clear,
/// then per non-empty line a cursor move and the text), stopping at the
/// first error `send` returns. Each command is built in one stack
/// buffer, so a redraw allocates nothing.
///
/// # Errors
///
/// The first error `send` returns.
pub fn redraw<E>(lines: &[String], mut send: impl FnMut(&[u8]) -> Result<(), E>) -> Result<(), E> {
    send(&[cmd::CLEAR])?;
    let mut text = [cmd::WRITE_TEXT; 1 + TEXT_COLS];
    for (row, line) in lines.iter().take(TEXT_LINES).enumerate() {
        if line.is_empty() {
            continue;
        }
        send(&[cmd::SET_CURSOR, row as u8, 0])?;
        let mut len = 1;
        for b in line.bytes().take(TEXT_COLS) {
            text[len] = b;
            len += 1;
        }
        send(&text[..len])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::menu::Menu;

    fn entries(n: usize) -> Vec<MenuNode> {
        Menu::flat(n).root().children().to_vec()
    }

    fn render_menu(entries: &[MenuNode], highlighted: usize) -> Vec<String> {
        let mut out = Vec::new();
        render_menu_into(entries, highlighted, &mut out);
        out
    }

    fn render_status(
        adc_code: u16,
        distance_cm: Option<f64>,
        island: Option<usize>,
        level: usize,
        battery_soc: f64,
    ) -> Vec<String> {
        let mut out = Vec::new();
        render_status_into(adc_code, distance_cm, island, level, battery_soc, &mut out);
        out
    }

    fn render_instruction(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        render_instruction_into(text, &mut out);
        out
    }

    /// The commands [`redraw`] sends, collected.
    fn redraw_commands(lines: &[String]) -> Vec<Vec<u8>> {
        let mut cmds = Vec::new();
        let sent: Result<(), ()> = redraw(lines, |c| {
            cmds.push(c.to_vec());
            Ok(())
        });
        assert_eq!(sent, Ok(()));
        cmds
    }

    #[test]
    fn short_menu_shows_all_entries_with_marker() {
        let e = entries(3);
        let lines = render_menu(&e, 1);
        assert_eq!(lines.len(), TEXT_LINES);
        assert_eq!(lines[0], " Item 00");
        assert_eq!(lines[1], ">Item 01");
        assert_eq!(lines[2], " Item 02");
        assert_eq!(lines[3], "");
        assert!(lines.iter().all(|l| l.chars().count() <= TEXT_COLS));
    }

    #[test]
    fn long_menu_windows_around_the_highlight() {
        let e = entries(20);
        let lines = render_menu(&e, 10);
        let marked: Vec<&String> = lines.iter().filter(|l| l.starts_with('>')).collect();
        assert_eq!(marked.len(), 1);
        assert!(marked[0].contains("Item 10"));
    }

    #[test]
    fn long_menu_has_a_scrollbar_thumb() {
        let e = entries(20);
        let top = render_menu(&e, 0);
        let bottom = render_menu(&e, 19);
        assert!(
            top[0].ends_with('#'),
            "thumb at the top for the first entry: {top:?}"
        );
        assert!(
            bottom[TEXT_LINES - 1].ends_with('#'),
            "thumb at the bottom for the last"
        );
        assert!(top.iter().skip(1).all(|l| l.ends_with('|')));
    }

    #[test]
    fn window_clamps_at_both_ends() {
        let e = entries(20);
        let lines = render_menu(&e, 0);
        assert!(lines[0].contains("Item 00"));
        let lines = render_menu(&e, 19);
        assert!(lines[TEXT_LINES - 1].contains("Item 19"));
    }

    #[test]
    fn long_labels_are_truncated_not_wrapped() {
        let e = vec![MenuNode::leaf("An exceedingly long menu entry label")];
        let lines = render_menu(&e, 0);
        assert!(lines[0].chars().count() <= TEXT_COLS);
        assert!(lines[0].starts_with(">An exceedingly"));
    }

    #[test]
    fn status_formats_all_fields() {
        let lines = render_status(512, Some(17.3), Some(4), 2, 0.83);
        assert_eq!(lines.len(), TEXT_LINES);
        assert!(lines[0].contains("512"));
        assert!(lines[1].contains("17.3cm"));
        assert!(lines[2].contains("isl 4"));
        assert!(lines[2].contains("lvl 2"));
        assert!(lines[3].contains("83%"));
    }

    #[test]
    fn renders_reuse_stale_buffers_byte_for_byte() {
        let e = entries(20);
        let mut buf = vec!["stale junk that is longer than a line".to_string(); 7];
        render_menu_into(&e, 7, &mut buf);
        assert_eq!(buf, render_menu(&e, 7));
        render_status_into(512, Some(17.3), Some(4), 2, 0.83, &mut buf);
        assert_eq!(
            buf,
            ["adc  512", "d    17.3cm", "isl 4  lvl 2", "bat  83%", ""]
        );
        render_status_into(0, None, None, 0, 1.0, &mut buf);
        assert_eq!(
            buf,
            ["adc    0", "d   --.-cm", "isl -  lvl 0", "bat 100%", ""]
        );
        render_status_into(1023, Some(4.0), Some(0), 7, 0.0, &mut buf);
        assert_eq!(
            buf,
            ["adc 1023", "d     4.0cm", "isl 0  lvl 7", "bat   0%", ""]
        );
        render_status_into(7, Some(29.96), None, 1, 0.555, &mut buf);
        assert_eq!(
            buf,
            ["adc    7", "d    30.0cm", "isl -  lvl 1", "bat  56%", ""]
        );
        render_instruction_into("the Ringing tone", &mut buf);
        assert_eq!(buf, ["Find:", "the Ringing tone", "", "", ""]);
        render_menu_into(&e[..2], 1, &mut buf);
        assert_eq!(buf, [" Item 00", ">Item 01", "", "", ""]);
    }

    #[test]
    fn multibyte_labels_pad_by_characters() {
        let e: Vec<MenuNode> = (0..6)
            .map(|i| MenuNode::leaf(format!("Grüße {i}")))
            .collect();
        let lines = render_menu(&e, 0);
        assert_eq!(lines[0], ">Grüße 0       #");
        assert!(lines.iter().all(|l| l.chars().count() == TEXT_COLS));
    }

    #[test]
    fn status_handles_missing_measurements() {
        let lines = render_status(0, None, None, 0, 1.0);
        assert!(lines[1].contains("--"));
        assert!(lines[2].contains("isl -"));
    }

    #[test]
    fn instructions_word_wrap_to_the_panel() {
        let lines = render_instruction("the Ringing tone entry under Tone settings");
        assert_eq!(lines.len(), TEXT_LINES);
        assert_eq!(lines[0], "Find:");
        assert!(
            lines.iter().all(|l| l.chars().count() <= TEXT_COLS),
            "{lines:?}"
        );
        let joined = lines.join(" ");
        assert!(joined.contains("Ringing"));
        assert!(joined.contains("settings"));
    }

    #[test]
    fn over_long_words_truncate_rather_than_overflow() {
        let lines = render_instruction("Supercalifragilisticexpialidocious");
        assert!(lines.iter().all(|l| l.chars().count() <= TEXT_COLS));
        assert!(lines[1].starts_with("Supercali"));
    }

    #[test]
    fn redraw_clears_then_writes() {
        let cmds = redraw_commands(&["Hello".to_string(), String::new(), "World".to_string()]);
        assert_eq!(cmds[0], vec![cmd::CLEAR]);
        assert_eq!(cmds[1], vec![cmd::SET_CURSOR, 0, 0]);
        assert_eq!(cmds[2], b"\x03Hello");
        // The empty line is skipped: next cursor goes to row 2.
        assert_eq!(cmds[3], vec![cmd::SET_CURSOR, 2, 0]);
        assert_eq!(cmds[4], b"\x03World");
        assert_eq!(cmds.len(), 5);
    }

    #[test]
    fn redraw_clips_lines_at_the_panel_width() {
        let cmds = redraw_commands(&["x".repeat(40)]);
        assert_eq!(cmds[2].len(), 1 + TEXT_COLS);
    }

    #[test]
    fn redraw_stops_at_the_first_error() {
        let mut sent = 0;
        let result = redraw(&["a".to_string(), "b".to_string()], |_| {
            sent += 1;
            if sent == 2 {
                Err("nack")
            } else {
                Ok(())
            }
        });
        assert_eq!(result, Err("nack"));
        assert_eq!(sent, 2);
    }

    #[test]
    fn redraw_round_trips_through_a_display() {
        use distscroll_hw::display::{Bt96040, DisplayRole};
        use distscroll_hw::i2c::I2cDevice;
        let mut d = Bt96040::new(0x3c, DisplayRole::Upper);
        let e = entries(3);
        let lines = render_menu(&e, 2);
        redraw(&lines, |c| d.write(c)).unwrap();
        assert_eq!(d.line(2), ">Item 02");
    }
}
