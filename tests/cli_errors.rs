//! CLI hardening: malformed user input must produce a one-line error
//! and exit code 1 — never a panic (exit 101) and never a backtrace.

use std::process::Command;

fn vpart(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vpart"))
        .args(args)
        .output()
        .expect("vpart binary runs")
}

/// Runs the CLI and asserts it failed *gracefully*: non-zero but not a
/// panic, with a diagnostic mentioning `needle` on stderr.
fn assert_clean_error(args: &[&str], needle: &str) {
    let out = vpart(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} should fail\n{stderr}");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?} must exit 1, not crash: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?} stderr should mention {needle:?}:\n{stderr}"
    );
}

#[test]
fn negative_time_limit_is_rejected_not_a_panic() {
    // Regression: this used to reach Duration::from_secs_f64(-1.0) and
    // panic with a float-conversion backtrace.
    assert_clean_error(
        &[
            "solve",
            "--instance",
            "rndBt4x15",
            "--sites",
            "2",
            "--time-limit",
            "-1",
        ],
        "--time-limit",
    );
    assert_clean_error(
        &[
            "solve",
            "--instance",
            "rndBt4x15",
            "--sites",
            "2",
            "--time-limit",
            "NaN",
        ],
        "--time-limit",
    );
}

#[test]
fn malformed_flag_values_error_cleanly() {
    assert_clean_error(
        &["solve", "--instance", "rndBt4x15", "--sites", "-3"],
        "--sites",
    );
    assert_clean_error(
        &["solve", "--instance", "rndBt4x15", "--sites", "two"],
        "--sites",
    );
    assert_clean_error(
        &["solve", "--instance", "rndBt4x15", "--sites", "0"],
        "at least one site",
    );
    assert_clean_error(
        &[
            "solve",
            "--instance",
            "rndBt4x15",
            "--sites",
            "2",
            "--algo",
            "bogus",
        ],
        "unknown algorithm",
    );
    assert_clean_error(
        &["solve", "--instance", "no-such-instance", "--sites", "2"],
        "unknown instance",
    );
    assert_clean_error(&["solve", "--instance"], "needs a value");
    assert_clean_error(&["frobnicate"], "unknown command");
}

#[test]
fn corrupt_instance_files_error_cleanly() {
    let path = std::env::temp_dir().join(format!("vpart_corrupt_{}.json", std::process::id()));
    std::fs::write(&path, "{\"schema\": [1, 2,").unwrap();
    assert_clean_error(
        &[
            "solve",
            "--instance",
            path.to_str().unwrap(),
            "--sites",
            "2",
        ],
        "not a valid instance file",
    );

    // Well-formed JSON with numbers the model forbids: the web-shop
    // instance from `ingest --out`, hand-edited to a negative frequency,
    // a negative width, a zero row count or a table range running past
    // the attributes.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let out = vpart(&[
        "ingest",
        "--schema",
        &format!("{data}/schema.sql"),
        "--log",
        &format!("{data}/queries.log"),
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "ingest --out succeeds");
    let good = std::fs::read_to_string(&path).unwrap();
    for (key, value, needle) in [
        ("frequency", "-5", "invalid frequency -5"),
        ("width", "-4", "invalid width -4"),
        ("table_rows", "0", "invalid row count 0"),
        ("attr_end", "600", "invalid attribute range 0..600"),
    ] {
        std::fs::write(&path, with_first_number(&good, key, value)).unwrap();
        assert_clean_error(
            &[
                "solve",
                "--instance",
                path.to_str().unwrap(),
                "--sites",
                "2",
            ],
            needle,
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// `json` with the first number after the key `"key"` replaced by
/// `value` (for `table_rows`, the first `[table, rows]` pair's rows).
fn with_first_number(json: &str, key: &str, value: &str) -> String {
    let mut at = json.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    if key == "table_rows" {
        // Skip `: [ [ <table>,` to the row count.
        at += json[at..].find(',').expect("pair") + 1;
    }
    let start = at
        + json[at..]
            .find(|c: char| c == '-' || c.is_ascii_digit())
            .unwrap();
    let len = json[start..]
        .find(|c: char| !(c == '-' || c == '.' || c.is_ascii_digit()))
        .unwrap();
    format!("{}{value}{}", &json[..start], &json[start + len..])
}

#[test]
fn watch_validates_online_config_flags() {
    let dir = std::env::temp_dir();
    let schema = dir.join(format!("vpart_cli_{}.sql", std::process::id()));
    let log = dir.join(format!("vpart_cli_{}.log", std::process::id()));
    std::fs::write(&schema, "CREATE TABLE r (a INT, b INT);\n").unwrap();
    std::fs::write(&log, "SELECT a FROM r;\n").unwrap();
    let (schema, log) = (
        schema.to_str().unwrap().to_owned(),
        log.to_str().unwrap().to_owned(),
    );

    for (flag, value, needle) in [
        ("--decay", "1.5", "decay factor"),
        ("--rows", "0", "rows_per_fragment"),
        ("--drift-threshold", "-5", "drift threshold"),
        ("--interval", "0", "--interval"),
        ("--hysteresis", "0", "hysteresis"),
        ("--migration-batch-bytes", "0", "migration_batch_bytes"),
        ("--max-retries", "never", "--max-retries"),
        ("--fault", "watch.resolve:prob=2", "prob"),
        ("--fault", "nocolonhere", "point:trigger"),
    ] {
        assert_clean_error(
            &[
                "watch", "--schema", &schema, "--log", &log, "--sites", "2", flag, value,
            ],
            needle,
        );
    }

    let _ = std::fs::remove_file(schema);
    let _ = std::fs::remove_file(log);
}

#[test]
fn replay_rejects_malformed_skew_and_fault_specs() {
    for (flag, value, needle) in [
        ("--skew", "zipf:2", "zipf theta"),
        ("--skew", "zipf:abc", "zipf"),
        ("--skew", "hotspot:1.5", "hotspot fraction"),
        ("--skew", "pareto", "unknown skew"),
        ("--fault", "replay.pass:sometimes", "unknown trigger"),
        ("--fault", "replay.pass:nth=0", "1-based"),
        ("--fault", ":once", "empty fail-point"),
    ] {
        assert_clean_error(
            &[
                "replay",
                "--instance",
                "rndBt4x15",
                "--sites",
                "2",
                flag,
                value,
            ],
            needle,
        );
    }
}

#[test]
fn corrupt_and_missing_journals_error_cleanly() {
    assert_clean_error(
        &["inspect", "--journal", "/nonexistent/journal.jsonl"],
        "cannot read",
    );

    let dir = std::env::temp_dir();
    // Garbage is reported as corruption naming the line, not a panic.
    let garbage = dir.join(format!(
        "vpart_journal_garbage_{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&garbage, "this is not a journal\n").unwrap();
    assert_clean_error(
        &["inspect", "--journal", garbage.to_str().unwrap()],
        "line 1",
    );
    let _ = std::fs::remove_file(&garbage);

    // A bit-flipped record in an otherwise valid journal trips the
    // per-line checksum.
    use vpart::prelude::{JournalRecord, MigrationJournal};
    let mut journal = MigrationJournal::new();
    journal
        .append(JournalRecord::Start {
            fingerprint: 0xFEED,
            batches: 2,
            rows_per_fragment: 8,
        })
        .unwrap();
    journal
        .append(JournalRecord::BatchBegin { batch: 0 })
        .unwrap();
    journal
        .append(JournalRecord::BatchCommit {
            batch: 0,
            bytes: 32.0,
        })
        .unwrap();
    let tampered = journal.to_jsonl().replacen("32", "33", 1);
    let path = dir.join(format!(
        "vpart_journal_tampered_{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, tampered).unwrap();
    assert_clean_error(
        &["inspect", "--journal", path.to_str().unwrap()],
        "checksum mismatch",
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_flags_and_missing_values_are_rejected() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let (schema, log) = (format!("{data}/schema.sql"), format!("{data}/queries.log"));
    for (args, needle) in [
        (
            vec!["solve", "--instance", "tpcc", "--restart", "8"],
            "unknown flag --restart",
        ),
        (
            vec!["replay", "--instance", "tpcc", "--thread", "4"],
            "unknown flag --thread",
        ),
        (vec!["list", "--bogus", "x"], "unknown flag --bogus"),
        (
            vec!["solve", "--instance", "tpcc", "--follow"],
            "unknown flag --follow",
        ),
        // Health flags only ever switched tracing on for solve.
        (
            vec!["solve", "--instance", "tpcc", "--health-out", "x"],
            "unknown flag --health-out",
        ),
        // watch names each phase after its file.
        (
            vec!["watch", "--schema", &schema, "--log", &log, "--name", "x"],
            "unknown flag --name",
        ),
        (
            vec![
                "ingest", "--schema", &schema, "--log", &log, "--name", "--json",
            ],
            "--name needs a value",
        ),
    ] {
        assert_clean_error(&args, needle);
    }
    // The error lists the flags the command does accept.
    let out = vpart(&["solve", "--restart", "8"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: vpart solve"), "{stderr}");
    assert!(stderr.contains("[--restarts <n> (1)]"), "{stderr}");
    // A negative number is still a value, not a flag.
    assert_clean_error(
        &["solve", "--instance", "tpcc", "--p", "-5"],
        "p must be >= 0, got -5",
    );
}

#[test]
fn conflicting_sources_are_rejected_not_silently_ranked() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    assert_clean_error(
        &[
            "solve",
            "--instance",
            "tpcc",
            "--schema",
            &format!("{data}/schema.sql"),
            "--log",
            &format!("{data}/queries.log"),
        ],
        "--instance and --schema are mutually exclusive",
    );
    assert_clean_error(
        &[
            "replay",
            "--instance",
            "tpcc",
            "--txns",
            "700",
            "--rounds",
            "2",
        ],
        "--txns and --rounds are mutually exclusive",
    );
}
