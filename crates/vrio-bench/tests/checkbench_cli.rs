//! Command-line contract of the `checkbench` and `checkjson` gates: a
//! usage error exits 2 with one exact message and runs nothing, while a
//! failed check keeps exit status 1, so a script can tell a broken
//! invocation from a detected regression.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("gate binary runs")
}

fn checkbench(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_checkbench"), args)
}

fn checkjson(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_checkjson"), args)
}

/// Asserts `out` failed with `code`, printed exactly `stderr` and nothing
/// on stdout.
fn assert_exit(out: &Output, code: i32, stderr: &str, what: &str) {
    assert_eq!(out.status.code(), Some(code), "{what}: {out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), stderr, "{what}");
    assert!(out.stdout.is_empty(), "{what} printed to stdout: {out:?}");
}

const CHECKBENCH_USAGE: &str = concat!(
    "checkbench: usage: checkbench RESULT.json --baseline FILE [--tolerance 0.15]\n",
    "                   checkbench --perf BENCH_perf.json --baseline FILE ",
    "[--tolerance 0.5] [--warn-only]\n",
);

const CHECKJSON_USAGE: &str = "checkjson: usage: checkjson FILE [--chrome] [--telem \
     [--require-track NAME]...] [--prof] [--require dotted.path]...\n";

#[test]
fn checkbench_usage_errors_exit_2_with_an_exact_message() {
    let cases: [(&[&str], &str); 6] = [
        (&["r.json", "--bogus"], "checkbench: unknown flag --bogus\n"),
        (&["r.json"], CHECKBENCH_USAGE),
        (&["--perf", "r.json"], CHECKBENCH_USAGE),
        (
            &["r.json", "--baseline", "b.json", "--warn-only"],
            "checkbench: --warn-only only applies to --perf mode\n",
        ),
        (
            &["r.json", "--baseline", "b.json", "--tolerance", "-1"],
            "checkbench: --tolerance needs a non-negative number\n",
        ),
        (
            &["r.json", "s.json", "--baseline", "b.json"],
            "checkbench: more than one input file given\n",
        ),
    ];
    for (args, msg) in cases {
        assert_exit(&checkbench(args), 2, msg, &format!("checkbench {args:?}"));
    }
}

#[test]
fn checkjson_usage_errors_exit_2_with_an_exact_message() {
    let cases: [(&[&str], &str); 3] = [
        (&["f.json", "--bogus"], "checkjson: unknown flag --bogus\n"),
        (&[], CHECKJSON_USAGE),
        (&["--chrome"], CHECKJSON_USAGE),
    ];
    for (args, msg) in cases {
        assert_exit(&checkjson(args), 2, msg, &format!("checkjson {args:?}"));
    }
}

#[test]
fn failed_checks_keep_exit_status_1() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkbench_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("no-such-file.json");
    let missing = missing.to_str().unwrap();
    let _ = std::fs::remove_file(missing);

    // An input that cannot be read is a failed check, not a usage error.
    assert_exit(
        &checkjson(&[missing]),
        1,
        &format!("checkjson: cannot read {missing}: No such file or directory (os error 2)\n"),
        "checkjson on a missing file",
    );

    // A wall-clock regression beyond the tolerance.
    let doc = |wall_ms: f64| {
        format!(
            "{{\"schema_version\": 2, \"kind\": \"perf\", \"quick\": true, \
             \"events_per_run\": 1, \"metrics\": {{\"run_wall_ms\": {wall_ms}}}}}"
        )
    };
    let (floor, result) = (dir.join("floor.json"), dir.join("result.json"));
    std::fs::write(&floor, doc(10.0)).unwrap();
    std::fs::write(&result, doc(20.0)).unwrap();
    let out = checkbench(&[
        "--perf",
        result.to_str().unwrap(),
        "--baseline",
        floor.to_str().unwrap(),
    ]);
    assert_exit(
        &out,
        1,
        "checkbench: PERF REGRESSION run_wall_ms: 10.00 -> 20.00 (beyond ±50% of floor)\n\
         checkbench: 1 of 1 perf metrics regressed beyond ±50%\n",
        "checkbench on a regression",
    );
}
