//! Programs with a reference output: the conformance corpus under
//! `tests/corpus/` (hand-checked golden files), the `examples/maya`
//! extension pair, and generated projects.

use maya::{ErrorFormat, RequestOpts};
use std::io;
use std::path::Path;

/// One program: its files, the extra `mayac` arguments it is compiled
/// with, and the reference exit status and output.
#[derive(Clone)]
pub struct Program {
    pub label: String,
    pub files: Vec<(String, String)>,
    pub args: Vec<String>,
    pub expect_success: bool,
    pub stdout: String,
    pub stderr: String,
}

impl Program {
    /// A program expected to succeed with `stdout` and no diagnostics.
    pub fn clean(label: String, files: Vec<(String, String)>, stdout: String) -> Program {
        Program {
            label,
            files,
            args: Vec::new(),
            expect_success: true,
            stdout,
            stderr: String::new(),
        }
    }

    /// Checks one run's exit status and output against the reference.
    pub fn check(&self, success: bool, stdout: &str, stderr: &str) -> Result<(), String> {
        if success != self.expect_success {
            return Err(format!(
                "{}: expected {} but it {}; stderr: {}",
                self.label,
                if self.expect_success {
                    "success"
                } else {
                    "failure"
                },
                if success { "succeeded" } else { "failed" },
                first_line(stderr)
            ));
        }
        if stdout != self.stdout {
            return Err(format!("{}: stdout differs from the reference", self.label));
        }
        if stderr != self.stderr {
            return Err(format!(
                "{}: stderr differs from the reference: {}",
                self.label,
                first_line(stderr)
            ));
        }
        Ok(())
    }

    /// The in-process equivalent of this program's `mayac` arguments.
    pub fn request_opts(&self) -> RequestOpts {
        let mut o = RequestOpts::default();
        let mut it = self.args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--expand" => o.expand = true,
                "--error-format=json" => o.error_format = ErrorFormat::Json,
                "-use" => o.uses.extend(it.next().cloned()),
                other => {
                    if let Some(n) = other.strip_prefix("--max-errors=") {
                        o.max_errors = n.parse().expect("corpus --max-errors value");
                    }
                }
            }
        }
        o
    }

    /// A `mayad` compile request for this program's files under `dir`.
    pub fn request_line(&self, dir: &Path, client: &str) -> String {
        use maya::telemetry::json_string;
        let o = self.request_opts();
        let files: Vec<String> = self
            .files
            .iter()
            .map(|(n, _)| json_string(&dir.join(n).to_string_lossy()))
            .collect();
        let uses: Vec<String> = o.uses.iter().map(|u| json_string(u)).collect();
        format!(
            "{{\"files\": [{}], \"client\": {}, \"expand\": {}, \"error_format\": \"{}\", \"max_errors\": {}, \"uses\": [{}]}}",
            files.join(", "),
            json_string(client),
            o.expand,
            if o.error_format == ErrorFormat::Json { "json" } else { "human" },
            o.max_errors,
            uses.join(", ")
        )
    }

    /// Whether the plain `Compiler` API (no request options) reproduces
    /// this program: it must succeed and need no `mayac` flags.
    pub fn plain(&self) -> bool {
        self.expect_success && self.args.is_empty()
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("")
}

/// Every `tests/corpus/*.maya` program with its golden output and its
/// directives (`// mayac: ARGS`, `// status: fail`), in name order.
pub fn load(root: &Path) -> io::Result<Vec<Program>> {
    let dir = root.join("tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".maya"))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let text = std::fs::read_to_string(dir.join(&name))?;
        let stem = name.trim_end_matches(".maya");
        let golden = |ext: &str| {
            std::fs::read_to_string(dir.join(format!("{stem}.{ext}"))).unwrap_or_default()
        };
        let mut args = Vec::new();
        let mut expect_success = true;
        for line in text.lines() {
            let Some(rest) = line.trim().strip_prefix("//") else {
                break;
            };
            let rest = rest.trim();
            if let Some(a) = rest.strip_prefix("mayac:") {
                args = a.split_whitespace().map(str::to_owned).collect();
            } else if rest == "status: fail" {
                expect_success = false;
            }
        }
        out.push(Program {
            label: stem.to_owned(),
            stdout: golden("stdout"),
            stderr: golden("stderr"),
            files: vec![(name, text)],
            args,
            expect_success,
        });
    }
    if out.len() < 10 {
        return Err(io::Error::other(format!(
            "only {} corpus programs in {}",
            out.len(),
            dir.display()
        )));
    }
    Ok(out)
}

/// The `examples/maya` pair: a source extension library and an
/// application that `use`s it, so the compile builds LALR tables twice
/// (base grammar, then the extended one). Its reference output is the
/// example's documented result.
pub fn eforeach_pair(root: &Path) -> io::Result<Program> {
    let dir = root.join("examples/maya");
    let mut files = Vec::new();
    for name in ["eforeach_ext.maya", "eforeach_app.maya"] {
        files.push((name.to_owned(), std::fs::read_to_string(dir.join(name))?));
    }
    Ok(Program::clean(
        "eforeach_pair".to_owned(),
        files,
        "paper -> PLDI 2002\nsystem -> Maya\n".to_owned(),
    ))
}
