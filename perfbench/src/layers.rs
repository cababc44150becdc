//! The traced layer pass: replays a workload's programs through each
//! layer's public entry point, in-process, with a span around every call
//! and the compiler's own telemetry counters switched on.
//!
//! A pass runs on a fresh thread, so every thread-local cache (base
//! environment, LALR memo, dispatch memo) starts cold, and every count it
//! reports must repeat exactly when the pass runs again.

use crate::corpus::Program;
use crate::proc::{compile_reply, Client, Daemon};
use crate::trace::Tracer;
use crate::workloads::LayerInput;
use crate::Ctx;
use maya::core::json::{parse_json, Json};
use maya::core::store::{self, ArtifactStore, Kind};
use maya::core::Base;
use maya::telemetry::{self as tel, CacheId, Counter};
use maya::{CompileOptions, Compiler, Session};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One metric value with its unit.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
}

impl Value {
    /// Whether the value is a count (or a ratio of counts) that must
    /// repeat exactly between passes; times and rates are excluded.
    pub fn is_count(&self) -> bool {
        !matches!(self.unit, "ms" | "tokens/ms")
    }
}

pub struct PassOut {
    pub metrics: BTreeMap<String, Value>,
    pub trace: Tracer,
    pub attempted: u64,
    pub errors: Vec<String>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median(v: &mut [f64]) -> f64 {
    crate::percentile(v, 50.0)
}

fn installer() -> Rc<dyn Fn(&Compiler)> {
    Rc::new(|c: &Compiler| {
        maya::macrolib::install(c);
        maya::multijava::install(c);
    })
}

fn new_session() -> Session {
    let opts = CompileOptions {
        echo_output: false,
        jobs: 1,
        ..CompileOptions::default()
    };
    Session::new(opts, Some(installer()))
}

/// Runs one pass on a fresh thread.
pub fn pass(ctx: &Ctx, inputs: &[LayerInput], dir: &Path) -> io::Result<PassOut> {
    std::fs::create_dir_all(dir)?;
    std::thread::scope(|s| {
        s.spawn(|| Pass::new().run(ctx, inputs, dir))
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("layer pass panicked")))
    })
}

struct Pass {
    tr: Tracer,
    m: BTreeMap<String, Value>,
    attempted: u64,
    errors: Vec<String>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            tr: Tracer::new(),
            m: BTreeMap::new(),
            attempted: 0,
            errors: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.m.insert(name.to_owned(), Value { value, unit });
    }

    fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.errors.push(e);
        }
    }

    fn self_ms(&self, span: &str) -> f64 {
        self.tr.aggregate().get(span).map_or(0.0, |a| a.self_ms())
    }

    fn run(mut self, ctx: &Ctx, inputs: &[LayerInput], dir: &Path) -> io::Result<PassOut> {
        self.grammar();
        self.lexer(inputs);
        self.compiler(inputs);
        let session_ms = self.session(inputs);
        self.service(ctx, inputs, &session_ms, dir)?;
        self.store(inputs, dir)?;
        Ok(PassOut {
            metrics: self.m,
            trace: self.tr,
            attempted: self.attempted,
            errors: self.errors,
        })
    }

    /// `Base::build()` + `Grammar::tables()` with the table memo off: what
    /// every store-less process pays before its first parse.
    fn grammar(&mut self) {
        let mut reps = Vec::new();
        maya::grammar::set_table_cache_enabled(false);
        for _ in 0..3 {
            self.tr.next_op();
            let t = Instant::now();
            let ok = self.tr.span("grammar.base_tables", |_| {
                Base::build().grammar.tables().is_ok()
            });
            reps.push(t.elapsed().as_secs_f64() * 1e3);
            self.check(if ok {
                Ok(())
            } else {
                Err("base grammar has conflicts".into())
            });
        }
        maya::grammar::set_table_cache_enabled(true);
        self.put("grammar.base_tables_ms", median(&mut reps), "ms");
        // Warm the thread's base environment outside any measured span.
        let _ = Base::cached();
    }

    /// `maya_lexer::tree_lex_str` over every file.
    fn lexer(&mut self, inputs: &[LayerInput]) {
        let s = tel::Session::start(tel::Config::default());
        for input in inputs {
            for (_, text) in &input.program.files {
                self.tr.next_op();
                let _ = self.tr.span("lexer", |_| maya::lexer::tree_lex_str(text));
            }
        }
        let tokens = s.finish().counter(Counter::TokensLexed);
        let ms = self.self_ms("lexer");
        self.put("lexer.ms", ms, "ms");
        self.put(
            "lexer.tokens_per_ms",
            tokens as f64 / ms.max(1e-9),
            "tokens/ms",
        );
    }

    /// `Compiler::{add_source, compile, run_main}` with the table memo
    /// cleared first, as in a fresh process.
    fn compiler(&mut self, inputs: &[LayerInput]) {
        let s = tel::Session::start(tel::Config::default());
        let install = installer();
        for input in inputs.iter().filter(|i| i.program.plain()) {
            let p = &input.program;
            maya::grammar::clear_table_cache();
            self.tr.next_op();
            let r = self.tr.span("op.compiler", |tr| -> Result<String, String> {
                let c = Compiler::new();
                install(&c);
                for (name, text) in &p.files {
                    tr.span("core.add_source", |_| c.add_source(name, text))
                        .map_err(|e| e.message)?;
                }
                tr.span("core.compile", |_| c.compile())
                    .map_err(|e| e.message)?;
                tr.span("interp.run_main", |_| c.run_main("Main"))
                    .map_err(|e| e.message)
            });
            let verdict = match r {
                Ok(out) => p.check(true, &out, ""),
                Err(e) => Err(format!("{}: {e}", p.label)),
            };
            self.check(verdict);
        }
        let r = s.finish();
        let c = |k| r.counter(k);
        self.put(
            "grammar.tables_built",
            c(Counter::TablesBuilt) as f64,
            "count",
        );
        self.put(
            "grammar.table_cache_hit_ratio",
            ratio(
                c(Counter::TableCacheHits),
                c(Counter::TableCacheHits) + c(Counter::TableCacheMisses),
            ),
            "ratio",
        );
        self.put("core.add_source_ms", self.self_ms("core.add_source"), "ms");
        self.put(
            "parser.reductions",
            c(Counter::ParserReductions) as f64,
            "count",
        );
        self.put(
            "dispatch.tests_per_reduction",
            ratio(c(Counter::DispatchTests), c(Counter::DispatchReductions)),
            "ratio",
        );
        self.put(
            "dispatch.index_hit_ratio",
            ratio(
                c(Counter::DispatchIndexHits),
                c(Counter::DispatchIndexHits) + c(Counter::DispatchIndexMisses),
            ),
            "ratio",
        );
        self.put("core.compile_ms", self.self_ms("core.compile"), "ms");
        self.put(
            "core.lazy_forced_ratio",
            ratio(c(Counter::LazyNodesForced), c(Counter::LazyNodesCreated)),
            "ratio",
        );
        self.put(
            "template.instantiated",
            c(Counter::TemplatesInstantiated) as f64,
            "count",
        );
        self.put("interp.run_main_ms", self.self_ms("interp.run_main"), "ms");
        self.put(
            "interp.pic_hit_ratio",
            ratio(
                c(Counter::PicHits),
                c(Counter::PicHits) + c(Counter::PicMisses),
            ),
            "ratio",
        );
        self.put("interp.bc_compiled", c(Counter::BcCompiled) as f64, "count");
    }

    /// `Session::compile_sources`: a cold request, then each follow-up
    /// version (identical → full reuse, otherwise a recompile). Returns the
    /// per-request times for the service comparison.
    fn session(&mut self, inputs: &[LayerInput]) -> Vec<Vec<f64>> {
        let mut all = Vec::new();
        let mut recompiled = 0u64;
        for input in inputs {
            maya::grammar::clear_table_cache();
            let mut session = new_session();
            let opts = input.program.request_opts();
            let mut times = Vec::new();
            self.tr.next_op();
            let t = Instant::now();
            let o = self.tr.span("core.session.cold", |_| {
                session.compile_sources(&input.program.files, &opts)
            });
            times.push(t.elapsed().as_secs_f64() * 1e3);
            self.check(input.program.check(o.success, &o.stdout, &o.stderr));
            let mut prev = &input.program;
            for v in &input.versions {
                let name = if v.files == prev.files {
                    "core.session.full_reuse"
                } else {
                    "core.session.recompile"
                };
                let t = Instant::now();
                let o = self.tr.span(name, |_| {
                    session.compile_sources(&v.files, &v.request_opts())
                });
                times.push(t.elapsed().as_secs_f64() * 1e3);
                recompiled += o.files_recompiled as u64;
                self.check(v.check(o.success, &o.stdout, &o.stderr));
                prev = v;
            }
            all.push(times);
        }
        self.put(
            "core.session.full_reuse_ms",
            self.self_ms("core.session.full_reuse"),
            "ms",
        );
        self.put(
            "core.session.recompile_ms",
            self.self_ms("core.session.recompile"),
            "ms",
        );
        self.put("core.session.files_recompiled", recompiled as f64, "count");
        all
    }

    /// The same request sequence through a one-worker `mayad`: its reply
    /// time minus the in-process session's time for the same request is
    /// the service overhead (socket, JSON, queueing, file reads).
    fn service(
        &mut self,
        ctx: &Ctx,
        inputs: &[LayerInput],
        session_ms: &[Vec<f64>],
        dir: &Path,
    ) -> io::Result<()> {
        // Files go where the daemon runs and are sent by bare name, so
        // diagnostics name them exactly as the goldens do.
        let svc = dir.join("svc");
        std::fs::create_dir_all(&svc)?;
        let daemon = Daemon::start(&ctx.mayad, &svc, 1)?;
        let mut overhead = Vec::new();
        let mut refused = 0u64;
        for (i, input) in inputs.iter().enumerate() {
            let mut client = Client::connect(&daemon.socket)?;
            let client_id = format!("layer{i}");
            let seq = std::iter::once(&input.program).chain(&input.versions);
            for (k, p) in seq.enumerate() {
                crate::workloads::write_files(&svc, &p.files)?;
                let line = p.request_line(Path::new(""), &client_id);
                let t = Instant::now();
                let reply = self
                    .tr
                    .span("core.service.request", |_| client.request(&line))?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                // The first request is cold in the session but may find
                // the worker's table memo warm; compare warm requests only.
                if k > 0 {
                    overhead.push(ms - session_ms[i][k]);
                }
                let verdict = match compile_reply(&reply) {
                    Ok((ok, out, err)) => p.check(ok, &out, &err),
                    Err(e) => {
                        refused += 1;
                        Err(format!("{}: {e}", p.label))
                    }
                };
                self.check(verdict);
            }
        }
        let stats = Client::connect(&daemon.socket)?.request(r#"{"cmd":"stats"}"#)?;
        daemon.shutdown()?;
        let j = parse_json(&stats).map_err(|e| io::Error::other(format!("mayad stats: {e}")))?;
        let caches = j.get("stats").and_then(|s| s.get("caches"));
        // The daemon runs without a store, so its store gauges would read 0;
        // the store is measured by the `core.store.*` metrics instead.
        for id in CacheId::ALL
            .into_iter()
            .filter(|id| !id.name().starts_with("store_"))
        {
            let c = caches.and_then(|c| c.get(id.name()));
            let num = |k: &str| c.and_then(|c| c.get(k)).and_then(Json::as_u64).unwrap_or(0);
            self.put(
                &format!("core.caches.{}.entries", id.name()),
                num("size") as f64,
                "count",
            );
            self.put(
                &format!("core.caches.{}.hit_ratio", id.name()),
                ratio(num("hits"), num("hits") + num("misses")),
                "ratio",
            );
        }
        self.put("core.service.overhead_ms", median(&mut overhead), "ms");
        self.put("core.service.refused", refused as f64, "count");
        Ok(())
    }

    /// The persistent store: populate it with every program, then compile
    /// each program's last edited version in a fresh session with a cold
    /// table memo (as a fresh `mayac --cache-dir` process would), so the
    /// outcome misses and tables, token trees and bodies are hydrated.
    /// Finally `ArtifactStore::load` every entry.
    fn store(&mut self, inputs: &[LayerInput], dir: &Path) -> io::Result<()> {
        let st = ArtifactStore::open(dir.join("store"), None)?;
        store::install_thread(Some(st.clone()));
        let compile = |p: &Program| {
            maya::grammar::clear_table_cache();
            let o = new_session().compile_sources(&p.files, &p.request_opts());
            p.check(o.success, &o.stdout, &o.stderr)
        };
        for input in inputs {
            self.tr.next_op();
            let r = self
                .tr
                .span("core.store.populate", |_| compile(&input.program));
            self.check(r);
        }
        let ids = [
            CacheId::StoreTables,
            CacheId::StoreLex,
            CacheId::StoreOutcome,
            CacheId::StoreBody,
        ];
        let before: Vec<_> = ids.iter().map(|&c| tel::cache_stats(c)).collect();
        for input in inputs {
            let v = input.versions.last().unwrap_or(&input.program);
            self.tr.next_op();
            let r = self.tr.span("core.store.hydrate", |_| compile(v));
            self.check(r);
        }
        for (id, b) in ids.iter().zip(&before) {
            let a = tel::cache_stats(*id);
            let kind = id.name().trim_start_matches("store_");
            self.put(
                &format!("core.store.{kind}.hit_ratio"),
                ratio(a.hits - b.hits, a.hits + a.misses - b.hits - b.misses),
                "ratio",
            );
        }
        store::install_thread(None);
        let mut entries: Vec<(Kind, u128)> = std::fs::read_dir(st.dir())?
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let (key, ext) = name.split_once('.')?;
                let kind = Kind::ALL.into_iter().find(|k| k.ext() == ext)?;
                Some((kind, u128::from_str_radix(key, 16).ok()?))
            })
            .collect();
        entries.sort_by_key(|&(kind, key)| (key, kind.ext()));
        for (kind, key) in entries {
            let hit = self
                .tr
                .span("core.store.load", |_| st.load(kind, key).is_some());
            self.check(if hit {
                Ok(())
            } else {
                Err(format!(
                    "store entry {key:032x}.{} did not load",
                    kind.ext()
                ))
            });
        }
        self.put("core.store.load_ms", self.self_ms("core.store.load"), "ms");
        let bytes: u64 = st.stats().iter().map(|(_, s)| s.bytes).sum();
        self.put("core.store.bytes", bytes as f64, "bytes");
        Ok(())
    }
}
