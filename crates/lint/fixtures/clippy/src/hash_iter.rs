//@ expect: clippy::disallowed_types@5
//@ expect: clippy::disallowed_types@7

// Iteration order feeds reports; a hash map's order is not the seed's.
pub fn render(counts: &std::collections::HashMap<String, u64>) -> String {
    let mut out = String::new();
    let seen: std::collections::HashSet<&String> = counts.keys().collect();
    for (k, v) in counts {
        out.push_str(&format!("{k}={v} {}\n", seen.len()));
    }
    out
}
