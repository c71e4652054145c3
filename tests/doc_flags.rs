//! Doc-drift guard: every `vpart <cmd> ... --flag` invocation in a fenced
//! code block of the README or the verify skill must name a flag that
//! `vpart help` lists under that command, so documented commands keep
//! parsing now that unknown flags are rejected.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// The flags `vpart help` lists per command, read from its USAGE block.
fn help_flags() -> BTreeMap<String, BTreeSet<String>> {
    let out = Command::new(env!("CARGO_BIN_EXE_vpart"))
        .arg("help")
        .output()
        .expect("vpart binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let mut flags: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut cmd = String::new();
    let usage = text
        .lines()
        .skip_while(|l| !l.starts_with("USAGE"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty());
    for line in usage {
        let mut words = line.split_whitespace().peekable();
        if words.peek() == Some(&"vpart") {
            words.next();
            cmd = words.next().expect("command after vpart").to_owned();
        }
        let set = flags.entry(cmd.clone()).or_default();
        set.extend(words.filter_map(flag_name));
    }
    flags
}

/// `--name` out of a token such as `[--name`, `--name,` or `--name`.
fn flag_name(token: &str) -> Option<String> {
    let name: String = token
        .trim_start_matches(['[', '('])
        .strip_prefix("--")?
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// `(command, flags)` for each `vpart`/`$V` invocation inside fenced code
/// blocks, joining `\` line continuations and stopping at comments,
/// pipes and redirections.
fn documented_invocations(markdown: &str) -> Vec<(String, Vec<String>)> {
    let mut found = Vec::new();
    let mut in_fence = false;
    let mut logical = String::new();
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            logical.clear();
            continue;
        }
        if !in_fence {
            continue;
        }
        match line.trim_end().strip_suffix('\\') {
            Some(head) => {
                logical += head;
                logical.push(' ');
                continue;
            }
            None => logical += line,
        }
        let tokens: Vec<&str> = logical
            .split_whitespace()
            .take_while(|t| !t.starts_with('#') && !t.starts_with('>') && !t.starts_with("2>"))
            .take_while(|t| !matches!(*t, "|" | "||" | "&&" | ";"))
            .collect();
        let start = tokens
            .iter()
            .position(|t| *t == "vpart" || *t == "$V" || t.ends_with("/vpart"));
        if let Some(cmd) = start.and_then(|i| tokens.get(i + 1)) {
            let flags = tokens[start.unwrap() + 2..]
                .iter()
                .filter_map(|t| flag_name(t))
                .collect();
            found.push((cmd.to_string(), flags));
        }
        logical.clear();
    }
    found
}

#[test]
fn documented_flags_are_declared() {
    let help = help_flags();
    for cmd in [
        "list", "ingest", "solve", "replay", "watch", "inspect", "monitor",
    ] {
        assert!(help.contains_key(cmd), "`vpart help` lists no {cmd}");
    }
    let root = env!("CARGO_MANIFEST_DIR");
    for doc in ["README.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).unwrap();
        let invocations = documented_invocations(&text);
        assert!(
            invocations.len() >= 10,
            "{doc}: only {} invocations found",
            invocations.len()
        );
        for (cmd, flags) in invocations {
            let declared = help
                .get(&cmd)
                .unwrap_or_else(|| panic!("{doc}: `vpart {cmd}` is not a command"));
            for flag in flags {
                assert!(
                    declared.contains(&flag),
                    "{doc}: `vpart {cmd} --{flag}` is not in `vpart help`"
                );
            }
        }
    }
}

#[test]
fn invocation_scanner_follows_continuations() {
    let md =
        "```sh\n./target/release/vpart solve --instance tpcc \\\n    --sites 3 [--json] # --nope\n\
              vpart monitor t.jsonl --json | jq --bogus\n```\n\nvpart solve --outside\n";
    assert_eq!(
        documented_invocations(md),
        vec![
            (
                "solve".to_string(),
                vec!["instance".to_string(), "sites".into(), "json".into()]
            ),
            ("monitor".to_string(), vec!["json".to_string()]),
        ]
    );
}
