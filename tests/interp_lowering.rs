//! Differential testing of the fast runtime.
//!
//! Every program in `tests/corpus/`, and the `examples/maya` pair, is
//! executed through `mayac` once per execution tier:
//!
//! * **legacy** — `MAYA_NO_LOWER=1`: the tree-walking interpreter;
//! * **bytecode** — the default: bodies lowered once, then compiled to flat
//!   register bytecode with polymorphic inline caches and superinstructions.
//!
//! Stdout, stderr, and the exit status must be byte-identical across both —
//! the bytecode tier is an optimization, never a semantic change. The
//! bytecode run also writes `--stats` to a file: every lowered body in the
//! corpus must translate, so `bc_declined` (bodies sent back to the tree
//! walker) stays 0.

use maya::core::json::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

struct Directives {
    args: Vec<String>,
}

fn parse_directives(src: &str) -> Directives {
    let mut args = Vec::new();
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("//") else { break };
        if let Some(a) = rest.trim().strip_prefix("mayac:") {
            args = a.split_whitespace().map(str::to_string).collect();
        }
    }
    Directives { args }
}

/// Runs `files` on the tree walker (`legacy`) or the bytecode tier; extra
/// arguments go before the files.
fn run(cwd: &Path, d: &Directives, files: &[&str], legacy: bool, extra: &[String]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mayac"));
    cmd.current_dir(cwd).args(&d.args).args(extra).args(files);
    // Set on the child only; the test process environment is never mutated.
    cmd.env("MAYA_NO_LOWER", if legacy { "1" } else { "0" });
    cmd.output().unwrap()
}

/// The `bc_declined` counter of a `--stats` JSON document.
fn bc_declined(stats: &str) -> Option<u64> {
    parse_json(stats).ok()?.get("counters")?.get("bc_declined").and_then(Json::as_u64)
}

/// One test over the whole corpus (not one per program) so the report shows
/// every divergence at once and the corpus never partially runs.
#[test]
fn both_tiers_agree() {
    let dir = corpus_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".maya").then_some(name)
        })
        .collect();
    names.sort();
    assert!(names.len() >= 25, "corpus shrank ({} programs)", names.len());
    let stats_dir = std::env::temp_dir().join(format!("maya-tiers-{}", std::process::id()));
    std::fs::create_dir_all(&stats_dir).unwrap();

    let mut programs: Vec<(PathBuf, Directives, Vec<&str>)> = names
        .iter()
        .map(|name| {
            let src = std::fs::read_to_string(dir.join(name)).unwrap();
            (dir.clone(), parse_directives(&src), vec![name.as_str()])
        })
        .collect();
    programs.push((
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/maya"),
        Directives { args: Vec::new() },
        vec!["eforeach_ext.maya", "eforeach_app.maya"],
    ));

    let mut failures = Vec::new();
    for (k, (cwd, d, files)) in programs.iter().enumerate() {
        let name = files.join(" ");
        let baseline = run(cwd, d, files, true, &[]);
        let stats = stats_dir.join(format!("{k}.json"));
        let fast = run(cwd, d, files, false, &[format!("--stats={}", stats.display())]);
        if fast.status.code() != baseline.status.code() {
            failures.push(format!(
                "{name}: exit status diverged (bytecode {:?}, legacy {:?})",
                fast.status.code(),
                baseline.status.code()
            ));
        }
        for (channel, a, b) in [
            ("stdout", &fast.stdout, &baseline.stdout),
            ("stderr", &fast.stderr, &baseline.stderr),
        ] {
            if a != b {
                failures.push(format!(
                    "{name}: {channel} diverged between bytecode and legacy\n\
                     --- bytecode ---\n{}\n--- legacy ---\n{}",
                    String::from_utf8_lossy(a),
                    String::from_utf8_lossy(b)
                ));
            }
        }
        let declined = std::fs::read_to_string(&stats).ok().and_then(|s| bc_declined(&s));
        if declined != Some(0) {
            failures.push(format!("{name}: bc_declined = {declined:?}, expected Some(0)"));
        }
    }
    let _ = std::fs::remove_dir_all(&stats_dir);
    assert!(failures.is_empty(), "\n{}", failures.join("\n======\n"));
}

/// A step limit hit inside a `try` body.  The budget is still spent when
/// the `finally` block starts, so its first statement fails too and that
/// error replaces the body's.  Runs in-process: `mayac`'s default limit is
/// too slow to reach on the tree walker for a corpus program.
#[test]
fn step_limit_inside_try_agrees() {
    let src = r#"class Main {
    static void main() {
        int n = 0;
        try {
            while (true) {
                n++;
            }
        } finally {
            System.out.println("finally after " + n);
        }
    }
}
"#;
    let run = |lowering: bool| {
        let options = maya::CompileOptions {
            echo_output: false,
            jobs: 1,
            interp_step_limit: 10_000,
            ..Default::default()
        };
        let installer: std::rc::Rc<dyn Fn(&maya::Compiler)> =
            std::rc::Rc::new(move |c: &maya::Compiler| c.interp().set_lowering(lowering));
        let mut session = maya::Session::new(options, Some(installer));
        let out = session.compile_sources(
            &[("Main.maya".to_owned(), src.to_owned())],
            &maya::RequestOpts::default(),
        );
        (out.success, out.stdout, out.stderr)
    };
    let legacy = run(false);
    assert_eq!(run(true), legacy, "bytecode diverged from the tree walker");
    assert_eq!(
        legacy,
        (
            false,
            String::new(),
            "mayac: Main.maya:9:13: error: interpreter step limit (10000) exceeded; \
             the program or a metaprogram may be stuck in an infinite loop\n\
             mayac: error: aborting due to 1 previous error\n"
                .to_owned()
        )
    );
}
