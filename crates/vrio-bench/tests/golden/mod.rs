//! Shared comparison for the golden-file tests: a rendered report must
//! match its committed file under `tests/golden/` byte for byte, and a
//! mismatch fails with a line-by-line diff.

/// Panics unless `actual` equals `expected` (the contents of
/// `tests/golden/{file}`), listing every differing line. `changed` names
/// what a mismatch means, for the failure message.
pub fn assert_golden(file: &str, expected: &str, actual: &str, changed: &str) {
    if actual == expected {
        return;
    }
    let mut diff = String::new();
    let mut exp_lines = expected.lines();
    let mut act_lines = actual.lines();
    let mut n = 0usize;
    loop {
        n += 1;
        match (exp_lines.next(), act_lines.next()) {
            (None, None) => break,
            (e, a) if e == a => continue,
            (e, a) => {
                diff.push_str(&format!(
                    "  line {n}:\n    golden: {}\n    actual: {}\n",
                    e.unwrap_or("<end of file>"),
                    a.unwrap_or("<end of file>"),
                ));
            }
        }
    }
    panic!(
        "output diverged from tests/golden/{file} — {changed}:\n{diff}\
         If the change is intentional, regenerate the golden file and \
         explain the delta in the PR."
    );
}
