//! The four workloads. Each builds its inputs from the seed in `setup`,
//! then issues a fixed, seeded op sequence: the number of ops follows
//! from `--seconds` alone, never from how fast the machine is, so cache
//! contents and peak RSS are the same on every run of one seed.

use crate::corpus::{self, Program};
use crate::gen::{self, Class, FileRef, Kernel, Project, Shape};
use crate::proc::{self, Client, Daemon};
use crate::rng::Rng;
use crate::trace::{op_opt, span_opt, Tracer};
use crate::{Ctx, Measured, Sentinels};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// A sentinel sample is taken after every this many ops.
const SENTINEL_EVERY: usize = 8;

pub enum Workload {
    ColdCompile(ColdCompile),
    EditServe(EditServe),
    CacheReplay(CacheReplay),
    InterpHot(InterpHot),
}

pub const NAMES: [&str; 4] = ["cold_compile", "edit_serve", "cache_replay", "interp_hot"];

impl Workload {
    /// Builds workload `name` under `dir`.
    pub fn setup(name: &str, ctx: &Ctx, dir: &Path) -> io::Result<Workload> {
        std::fs::create_dir_all(dir)?;
        Ok(match name {
            "cold_compile" => Workload::ColdCompile(ColdCompile::setup(ctx, dir)?),
            "edit_serve" => Workload::EditServe(EditServe::setup(ctx, dir)?),
            "cache_replay" => Workload::CacheReplay(CacheReplay::setup(ctx, dir)?),
            "interp_hot" => Workload::InterpHot(InterpHot::setup(ctx, dir)?),
            other => return Err(io::Error::other(format!("unknown workload {other:?}"))),
        })
    }

    /// Ops a full measurement issues.
    pub fn total_ops(&mut self, ctx: &Ctx) -> usize {
        match self {
            Workload::ColdCompile(w) => w.total_ops(ctx),
            Workload::EditServe(w) => w.total_ops(ctx),
            Workload::CacheReplay(_) => CacheReplay::total_ops(ctx),
            Workload::InterpHot(_) => InterpHot::total_ops(ctx),
        }
    }

    /// Issues the next `n` ops of the sequence.
    pub fn run(
        &mut self,
        ctx: &Ctx,
        n: usize,
        s: &mut Sentinels,
        tr: Option<&mut Tracer>,
    ) -> Measured {
        match self {
            Workload::ColdCompile(w) => w.run(ctx, n, s, tr),
            Workload::EditServe(w) => w.run(ctx, n, s, tr),
            Workload::CacheReplay(w) => w.run(ctx, n, s, tr),
            Workload::InterpHot(w) => w.run(ctx, n, s, tr),
        }
    }

    /// The programs the traced layer pass replays in-process, each with the
    /// versions a session then receives.
    pub fn layer_inputs(&self, ctx: &Ctx) -> Vec<LayerInput> {
        match self {
            Workload::ColdCompile(w) => w.layer_inputs(ctx),
            Workload::EditServe(w) => w.layer_inputs(),
            Workload::CacheReplay(w) => w.layer_inputs(),
            Workload::InterpHot(w) => w.layer_inputs(),
        }
    }

    /// Stops anything the workload started.
    pub fn finish(self) -> io::Result<()> {
        match self {
            Workload::EditServe(w) => w.daemon.shutdown(),
            _ => Ok(()),
        }
    }
}

/// One program for the layer pass, plus the follow-up versions a warm
/// session receives (an identical version is a full-reuse request).
pub struct LayerInput {
    pub program: Program,
    pub versions: Vec<Program>,
}

impl LayerInput {
    /// A generated project: repeat (full reuse), one body edit, a revert,
    /// and an extension edit.
    fn from_project(label: &str, p: &Project, rng: &mut Rng) -> LayerInput {
        let prog = |p: &Project, tag: &str| {
            Program::clean(format!("{label}{tag}"), p.files(), p.expected_stdout())
        };
        let mut q = p.clone();
        let i = rng.below(q.class_count() as u64) as usize;
        let old = q.class(i);
        let initial = prog(&q, "");
        q.edit_class(rng, i);
        let edited = prog(&q, "+edit");
        q.set_class(i, old);
        let reverted = prog(&q, "+revert");
        q.edit_ext(q.ext_variant() + 1);
        let ext = prog(&q, "+ext");
        LayerInput {
            program: initial.clone(),
            versions: vec![initial, edited, reverted, ext],
        }
    }

    /// A corpus program: repeat, then (for clean programs without flags)
    /// an appended class that changes the token stream but not the output.
    fn from_program(p: &Program) -> LayerInput {
        let mut versions = vec![p.clone()];
        if p.plain() && p.stderr.is_empty() {
            let mut e = p.clone();
            let last = e.files.last_mut().expect("program has files");
            last.1
                .push_str("\nclass BenchEdit { int v() { return 1; } }\n");
            versions.push(e);
        }
        LayerInput {
            program: p.clone(),
            versions,
        }
    }
}

pub fn write_files(dir: &Path, files: &[(String, String)]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, text) in files {
        std::fs::write(dir.join(name), text)?;
    }
    Ok(())
}

/// Runs `mayac ARGS FILES` in `dir` and checks it against `p`.
fn mayac_op(
    ctx: &Ctx,
    p: &Program,
    dir: &Path,
    extra: &[String],
) -> (f64, i64, Result<(), String>) {
    let mut cmd = Command::new(&ctx.mayac);
    cmd.current_dir(dir).args(extra).args(&p.args);
    for (name, _) in &p.files {
        cmd.arg(name);
    }
    match proc::run(&mut cmd) {
        Ok(f) => {
            let ms = f.wall.as_secs_f64() * 1e3;
            let verdict = if f.code < 0 {
                Err(format!("{}: mayac killed by signal {}", p.label, -f.code))
            } else {
                p.check(f.code == 0, &f.stdout, &f.stderr)
            };
            (ms, f.maxrss_kb, verdict)
        }
        Err(e) => (0.0, 0, Err(format!("{}: cannot run mayac: {e}", p.label))),
    }
}

fn seeded_projects(rng: &mut Rng, n: usize, shape: Shape) -> Vec<Project> {
    (0..n).map(|_| Project::generate(rng, shape)).collect()
}

// ---- cold_compile ------------------------------------------------------------

/// One fresh store-less `mayac` process per op, over the corpus, the
/// extension pair and generated projects.
pub struct ColdCompile {
    inputs: Vec<(Program, PathBuf)>,
    order: Vec<usize>,
    cursor: usize,
}

impl ColdCompile {
    const GENERATED: usize = 4;
    const SHAPE: Shape = Shape {
        classes: 14,
        users: 3,
        fillers: 6,
        loop_n: 200,
    };
    /// Nominal op rate, used only to size the op count from `--seconds`.
    const OPS_PER_S: usize = 14;

    fn setup(ctx: &Ctx, dir: &Path) -> io::Result<ColdCompile> {
        let mut rng = Rng::new(ctx.seed).fork(1);
        let mut programs = corpus::load(&ctx.root)?;
        programs.push(corpus::eforeach_pair(&ctx.root)?);
        for (k, p) in seeded_projects(&mut rng, Self::GENERATED, Self::SHAPE)
            .iter()
            .enumerate()
        {
            programs.push(Program::clean(
                format!("gen{k}"),
                p.files(),
                p.expected_stdout(),
            ));
        }
        let mut inputs = Vec::new();
        for p in programs {
            let d = dir.join(&p.label);
            write_files(&d, &p.files)?;
            inputs.push((p, d));
        }
        // Check the pair and every generated project once before timing:
        // a generator bug fails set-up, and the binary is paged in.
        for (p, d) in inputs
            .iter()
            .filter(|(p, _)| p.label == "eforeach_pair" || p.label.starts_with("gen"))
        {
            mayac_op(ctx, p, d, &[]).2.map_err(io::Error::other)?;
        }
        Ok(ColdCompile {
            inputs,
            order: Vec::new(),
            cursor: 0,
        })
    }

    /// Whole rounds, each a seeded permutation of every input, so the mix
    /// is the same for every seed.
    fn total_ops(&mut self, ctx: &Ctx) -> usize {
        let round = self.inputs.len();
        let rounds = (ctx.seconds as usize * Self::OPS_PER_S)
            .max(100)
            .div_ceil(round);
        if self.order.is_empty() {
            let mut rng = Rng::new(ctx.seed).fork(2);
            for _ in 0..rounds * 2 {
                let mut perm: Vec<usize> = (0..round).collect();
                rng.shuffle(&mut perm);
                self.order.extend(perm);
            }
        }
        rounds * round
    }

    fn run(
        &mut self,
        ctx: &Ctx,
        n: usize,
        s: &mut Sentinels,
        mut tr: Option<&mut Tracer>,
    ) -> Measured {
        let mut m = Measured::default();
        let started = Instant::now();
        for k in 0..n {
            if ctx.out_of_time() {
                m.fail("out of time".into());
                break;
            }
            let (p, dir) = &self.inputs[self.order[self.cursor % self.order.len()]];
            self.cursor += 1;
            let (ms, rss, verdict) =
                op_opt(tr.as_deref_mut(), "op.mayac", || mayac_op(ctx, p, dir, &[]));
            m.record(ms, verdict);
            m.peak_rss_kb = m.peak_rss_kb.max(rss);
            if k % SENTINEL_EVERY == SENTINEL_EVERY - 1 {
                s.sample(ctx);
            }
        }
        m.wall_s = started.elapsed().as_secs_f64();
        m
    }

    fn layer_inputs(&self, ctx: &Ctx) -> Vec<LayerInput> {
        // A seeded sample: a few corpus programs, the pair, one project.
        let mut rng = Rng::new(ctx.seed).fork(3);
        let n_corpus = self.inputs.len() - Self::GENERATED - 1;
        let mut idx: Vec<usize> = (0..n_corpus).collect();
        rng.shuffle(&mut idx);
        let mut out: Vec<LayerInput> = idx[..8]
            .iter()
            .map(|&i| LayerInput::from_program(&self.inputs[i].0))
            .collect();
        out.push(LayerInput::from_program(&self.inputs[n_corpus].0));
        let mut prng = Rng::new(ctx.seed).fork(1);
        let p = Project::generate(&mut prng, Self::SHAPE);
        out.push(LayerInput::from_project("gen0", &p, &mut rng));
        out
    }
}

// ---- edit_serve --------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Edit {
    Body,
    Revert,
    Ext,
}

/// One closed-loop client: its project on disk, its history of class
/// versions (for reverts) and its seeded request plan.
struct EditClient {
    id: String,
    dir: PathBuf,
    project: Project,
    history: Vec<Vec<Class>>,
    rng: Rng,
    ext_variant: u64,
    conn: Client,
}

impl EditClient {
    /// Whether class `i` has a version other than its current one.
    fn revertible(&self, i: usize) -> bool {
        let current = self.project.class(i);
        self.history[i].iter().any(|c| *c != current)
    }

    /// Applies one edit to the project and writes the changed file.
    fn apply(&mut self, kind: Edit) -> io::Result<()> {
        let f = match kind {
            Edit::Ext => {
                self.ext_variant = (self.ext_variant + 1) % 3;
                self.project.edit_ext(self.ext_variant)
            }
            Edit::Revert if (0..self.history.len()).any(|i| self.revertible(i)) => {
                let candidates: Vec<usize> = (0..self.history.len())
                    .filter(|&i| self.revertible(i))
                    .collect();
                let i = candidates[self.rng.below(candidates.len() as u64) as usize];
                let current = self.project.class(i);
                let older: Vec<&Class> =
                    self.history[i].iter().filter(|c| **c != current).collect();
                let pick = older[self.rng.below(older.len() as u64) as usize].clone();
                self.project.set_class(i, pick)
            }
            // Before any class has a second version, a revert is a body edit.
            Edit::Body | Edit::Revert => {
                let i = self.rng.below(self.project.class_count() as u64) as usize;
                let f = self.project.edit_class(&mut self.rng, i);
                self.history[i].push(self.project.class(i));
                f
            }
        };
        std::fs::write(
            self.dir.join(self.project.name_of(f)),
            self.project.text_of(f),
        )
    }

    /// Sends the current project and checks the reply.
    fn send(&mut self) -> (f64, Result<(), String>) {
        let p = Program::clean(
            self.id.clone(),
            self.project.files(),
            self.project.expected_stdout(),
        );
        let line = p.request_line(&self.dir, &self.id);
        let t = Instant::now();
        let reply = self.conn.request(&line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let verdict = reply
            .map_err(|e| format!("{}: mayad request failed: {e}", self.id))
            .and_then(|r| proc::compile_reply(&r))
            .and_then(|(ok, out, err)| p.check(ok, &out, &err));
        (ms, verdict)
    }
}

/// A real `mayad` over its unix socket with up to `nproc` closed-loop
/// clients, each editing its own generated project.
pub struct EditServe {
    daemon: Daemon,
    clients: Vec<EditClient>,
    plan: Vec<Vec<Edit>>,
    cursor: usize,
}

impl EditServe {
    const SHAPE: Shape = Shape {
        classes: 12,
        users: 3,
        fillers: 6,
        loop_n: 3000,
    };
    /// Kept low because `mayad`'s memory grows with every request.
    const OPS_PER_S: usize = 30;

    fn setup(ctx: &Ctx, dir: &Path) -> io::Result<EditServe> {
        // Two clients (one on a single-CPU machine): concurrent, at most
        // `nproc` on a 2-vCPU machine, and the same on larger machines so
        // that the request stream does not depend on the machine.
        let clients_n = ctx.nproc.clamp(1, 2);
        let mut rng = Rng::new(ctx.seed).fork(10);
        let projects = seeded_projects(&mut rng, clients_n, Self::SHAPE);
        let daemon = Daemon::start(&ctx.mayad, dir, clients_n)?;
        let abs = std::fs::canonicalize(dir)?;
        let mut clients = Vec::new();
        for (c, project) in projects.into_iter().enumerate() {
            let cdir = abs.join(format!("client{c}"));
            write_files(&cdir, &project.files())?;
            clients.push(EditClient {
                id: format!("c{c}"),
                dir: cdir,
                history: (0..project.class_count())
                    .map(|i| vec![project.class(i)])
                    .collect(),
                project,
                rng: rng.fork(100 + c as u64),
                ext_variant: 0,
                conn: Client::connect(&daemon.socket)?,
            });
        }
        // Each client's first request compiles its project cold in its
        // session; it is part of set-up, not of the measured ops.
        let warm: Vec<Result<(), String>> = std::thread::scope(|sc| {
            let hs: Vec<_> = clients
                .iter_mut()
                .map(|c| sc.spawn(move || c.send().1))
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for w in warm {
            w.map_err(io::Error::other)?;
        }
        Ok(EditServe {
            daemon,
            clients,
            plan: Vec::new(),
            cursor: 0,
        })
    }

    fn total_ops(&mut self, ctx: &Ctx) -> usize {
        // A multiple of 4 per client, so the run's chunks split evenly.
        let per_client = (ctx.seconds as usize * Self::OPS_PER_S)
            .max(100)
            .div_ceil(self.clients.len() * 4)
            * 4;
        if self.plan.is_empty() {
            for c in 0..self.clients.len() {
                // Per block of 25, in seeded order. An edit lands on one
                // of the project's 13 editable files (12 classes and the
                // extension) with equal chance, and every class edit is
                // later reverted, as in the fuzzer's edit/revert cycle
                // (`xtask fuzz-lite`, post_edit oracle): 12 body edits with
                // new content (cache writes), 12 reverts to content already
                // seen (cache hits), 1 extension edit (wide cone; its
                // variants cycle, so it is its own revert).
                let mut rng = Rng::new(ctx.seed).fork(20 + c as u64);
                let mut plan = Vec::new();
                while plan.len() < per_client * 2 {
                    plan.extend(
                        rng.mix(&[12, 12, 1])
                            .into_iter()
                            .map(|k| [Edit::Body, Edit::Revert, Edit::Ext][k]),
                    );
                }
                self.plan.push(plan);
            }
        }
        per_client * self.clients.len()
    }

    fn run(&mut self, ctx: &Ctx, n: usize, s: &mut Sentinels, tr: Option<&mut Tracer>) -> Measured {
        let per_client = n / self.clients.len();
        let start = self.cursor;
        self.cursor += per_client;
        let plan = &self.plan;
        // Each client thread records into its own tracer on the same clock.
        let forks: Vec<Option<Tracer>> = (0..self.clients.len())
            .map(|c| tr.as_deref().map(|t| t.fork(c as u64)))
            .collect();
        let started = Instant::now();
        let results: Vec<(Measured, Sentinels, Option<Tracer>)> = std::thread::scope(|sc| {
            let hs: Vec<_> = self
                .clients
                .iter_mut()
                .zip(forks)
                .enumerate()
                .map(|(c, (client, mut ctr))| {
                    sc.spawn(move || {
                        let mut m = Measured::default();
                        let mut sent = Sentinels::default();
                        for (k, &edit) in plan[c].iter().enumerate().skip(start).take(per_client) {
                            if ctx.out_of_time() {
                                m.fail("out of time".into());
                                break;
                            }
                            if let Err(e) = client.apply(edit) {
                                m.fail(format!("cannot write edit: {e}"));
                                continue;
                            }
                            let (ms, verdict) =
                                op_opt(ctr.as_mut(), "op.request", || client.send());
                            m.record(ms, verdict);
                            if c == 0 && k % SENTINEL_EVERY == SENTINEL_EVERY - 1 {
                                sent.sample(ctx);
                            }
                        }
                        (m, sent, ctr)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        let mut m = Measured::default();
        let mut tr = tr;
        for (cm, cs, ctr) in results {
            m.absorb(cm);
            s.absorb(cs);
            if let (Some(t), Some(c)) = (tr.as_deref_mut(), ctr) {
                t.absorb(c);
            }
        }
        m.wall_s = wall;
        m.peak_rss_kb = proc::vm_hwm_kb(self.daemon.pid()).unwrap_or(0);
        m
    }

    fn layer_inputs(&self) -> Vec<LayerInput> {
        let c = &self.clients[0];
        let mut rng = c.rng.fork(7);
        vec![LayerInput::from_project("client0", &c.project, &mut rng)]
    }
}

// ---- cache_replay ------------------------------------------------------------

/// "CI jobs": each op applies one seeded class edit to the set-up program
/// set and runs fresh `mayac --cache-dir` processes over every program,
/// against a store filled during set-up. After each job (untimed) the edit
/// is undone and the entries the job wrote are deleted, so every job sees
/// the same store: its latency does not depend on its position in the run.
pub struct CacheReplay {
    store: PathBuf,
    /// Entry file names present after set-up.
    base_entries: std::collections::HashSet<std::ffi::OsString>,
    corpus: Vec<(Program, PathBuf)>,
    projects: Vec<(Project, PathBuf)>,
    rng: Rng,
}

impl CacheReplay {
    const CORPUS: usize = 8;
    const GENERATED: usize = 3;
    const SHAPE: Shape = Shape {
        classes: 10,
        users: 2,
        fillers: 6,
        loop_n: 150,
    };
    /// Nominal op rate, used only to size the op count from `--seconds`.
    /// Jobs are alike, so p90 sits close to p50 and a slow stretch of the
    /// machine lifts it once it covers a tenth of the run; a long run
    /// dilutes such stretches.
    const OPS_PER_S: usize = 25;

    fn setup(ctx: &Ctx, dir: &Path) -> io::Result<CacheReplay> {
        let mut rng = Rng::new(ctx.seed).fork(30);
        let all = corpus::load(&ctx.root)?;
        let mut idx: Vec<usize> = (0..all.len()).collect();
        rng.shuffle(&mut idx);
        let mut programs: Vec<Program> = idx[..Self::CORPUS]
            .iter()
            .map(|&i| all[i].clone())
            .collect();
        programs.push(corpus::eforeach_pair(&ctx.root)?);
        let mut corpus = Vec::new();
        for p in programs {
            let d = dir.join(&p.label);
            write_files(&d, &p.files)?;
            corpus.push((p, d));
        }
        let mut projects = Vec::new();
        for (k, p) in seeded_projects(&mut rng, Self::GENERATED, Self::SHAPE)
            .into_iter()
            .enumerate()
        {
            let d = dir.join(format!("gen{k}"));
            write_files(&d, &p.files())?;
            projects.push((p, d));
        }
        let store = std::fs::canonicalize(dir)?.join("store");
        let mut w = CacheReplay {
            store,
            base_entries: Default::default(),
            corpus,
            projects,
            rng,
        };
        // Fill the store: one populating job over the unedited set.
        w.job(ctx).map_err(io::Error::other)?;
        w.base_entries = w.store_entries()?;
        Ok(w)
    }

    fn total_ops(ctx: &Ctx) -> usize {
        (ctx.seconds as usize * Self::OPS_PER_S).max(100)
    }

    fn store_entries(&self) -> io::Result<std::collections::HashSet<std::ffi::OsString>> {
        std::fs::read_dir(&self.store)?
            .map(|e| e.map(|e| e.file_name()))
            .collect()
    }

    fn programs(&self) -> Vec<(Program, PathBuf)> {
        let mut v = self.corpus.clone();
        for (k, (p, d)) in self.projects.iter().enumerate() {
            v.push((
                Program::clean(format!("gen{k}"), p.files(), p.expected_stdout()),
                d.clone(),
            ));
        }
        v
    }

    fn write_class(&self, k: usize, f: FileRef) -> Result<(), String> {
        let (p, d) = &self.projects[k];
        std::fs::write(d.join(p.name_of(f)), p.text_of(f)).map_err(|e| e.to_string())
    }

    /// Every program once, each in a fresh `mayac --cache-dir` process.
    /// Returns the largest peak RSS.
    fn job(&self, ctx: &Ctx) -> Result<i64, String> {
        let flag = [format!("--cache-dir={}", self.store.display())];
        let mut peak = 0;
        let mut first_err = Ok(());
        for (p, d) in self.programs() {
            let (_, rss, verdict) = mayac_op(ctx, &p, &d, &flag);
            peak = peak.max(rss);
            if first_err.is_ok() {
                first_err = verdict;
            }
        }
        first_err.map(|_| peak)
    }

    /// One timed job over the set-up programs plus one seeded class edit
    /// (one changed file per job, as in the one-file edit per round of the
    /// service bench in `cargo xtask perf`);
    /// then, untimed, the edit is undone and the job's new store entries
    /// are deleted.
    fn edited_job(&mut self, ctx: &Ctx, tr: Option<&mut Tracer>) -> (f64, Result<i64, String>) {
        let k = self.rng.below(self.projects.len() as u64) as usize;
        let i = self.rng.below(self.projects[k].0.class_count() as u64) as usize;
        let old = self.projects[k].0.class(i);
        let t = Instant::now();
        let f = self.projects[k].0.edit_class(&mut self.rng, i);
        let r = self
            .write_class(k, f)
            .and_then(|_| op_opt(tr, "op.job", || self.job(ctx)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let f = self.projects[k].0.set_class(i, old);
        let reset = self.write_class(k, f).and_then(|_| {
            for name in self.store_entries().map_err(|e| e.to_string())? {
                if !self.base_entries.contains(&name) {
                    std::fs::remove_file(self.store.join(&name)).map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        });
        (ms, reset.and(r))
    }

    fn run(
        &mut self,
        ctx: &Ctx,
        n: usize,
        s: &mut Sentinels,
        mut tr: Option<&mut Tracer>,
    ) -> Measured {
        let mut m = Measured::default();
        let started = Instant::now();
        for k in 0..n {
            if ctx.out_of_time() {
                m.fail("out of time".into());
                break;
            }
            let (ms, r) = self.edited_job(ctx, tr.as_deref_mut());
            match r {
                Ok(rss) => {
                    m.record(ms, Ok(()));
                    m.peak_rss_kb = m.peak_rss_kb.max(rss);
                }
                Err(e) => m.record(ms, Err(e)),
            }
            if k % SENTINEL_EVERY == SENTINEL_EVERY - 1 {
                s.sample(ctx);
            }
        }
        m.wall_s = started.elapsed().as_secs_f64();
        m
    }

    fn layer_inputs(&self) -> Vec<LayerInput> {
        let mut rng = self.rng.fork(9);
        let mut v: Vec<LayerInput> = self
            .corpus
            .iter()
            .map(|(p, _)| LayerInput::from_program(p))
            .collect();
        v.push(LayerInput::from_project(
            "gen0",
            &self.projects[0].0,
            &mut rng,
        ));
        v
    }
}

// ---- interp_hot --------------------------------------------------------------

/// In-process: each op runs the whole kernel bundle. Every kernel is
/// compiled untimed in a fresh `Compiler`; the op's latency is the sum of
/// the kernels' `Compiler::run_main` times, so a change to any one kernel's
/// run time moves both latency percentiles.
pub struct InterpHot {
    kernels: Vec<Kernel>,
}

impl InterpHot {
    /// Nominal op rate, used only to size the op count from `--seconds`.
    const OPS_PER_S: usize = 12;

    fn setup(ctx: &Ctx, _dir: &Path) -> io::Result<InterpHot> {
        let mut rng = Rng::new(ctx.seed).fork(40);
        let mut kernels = Vec::new();
        for p in corpus::load(&ctx.root)?
            .into_iter()
            .filter(|p| p.label.starts_with("interp_hot_"))
        {
            kernels.push(Kernel {
                name: p.label,
                source: p.files[0].1.clone(),
                expected: p.stdout,
            });
        }
        // Sizes are fixed and the seed picks only constants, so every seed
        // costs the same; each generated kernel runs for a few ms, about
        // as long as one corpus kernel.
        kernels.push(gen::strings_kernel(425, 12, 8, rng.range(50, 90) as i32));
        kernels.push(gen::trycatch_kernel(8_500, 10, rng.range(3, 97) as i32));
        kernels.push(gen::calls_kernel(
            280,
            30,
            rng.range(3, 9) as i32,
            rng.range(5, 11) as i32,
        ));
        let mut muls = [0i32; 6];
        for m in &mut muls {
            *m = rng.range(3, 997) as i32;
        }
        kernels.push(gen::poly_kernel(108, 120, &muls));
        let (k1, k2, div) = (
            rng.range(17, 41) as i32,
            rng.range(11, 23) as i32,
            rng.range(2, 7) as i32,
        );
        kernels.push(gen::arith_kernel(100, 155, k1, k2, div));
        rng.shuffle(&mut kernels);
        let w = InterpHot { kernels };
        // Verify every kernel once; this also warms the base grammar.
        w.op(None).1.map_err(io::Error::other)?;
        Ok(w)
    }

    fn total_ops(ctx: &Ctx) -> usize {
        (ctx.seconds as usize * Self::OPS_PER_S).max(100)
    }

    /// Runs the bundle: each kernel compiled untimed, then `run_main`
    /// timed. Returns the summed run time and the first failure.
    fn op(&self, mut tr: Option<&mut Tracer>) -> (f64, Result<(), String>) {
        if let Some(t) = tr.as_deref_mut() {
            t.next_op();
        }
        let mut total_ms = 0.0;
        let mut verdict = Ok(());
        for k in &self.kernels {
            let (ms, v) = Self::kernel(k, tr.as_deref_mut());
            total_ms += ms;
            if verdict.is_ok() {
                verdict = v;
            }
        }
        (total_ms, verdict)
    }

    fn kernel(k: &Kernel, mut tr: Option<&mut Tracer>) -> (f64, Result<(), String>) {
        let c = maya::Compiler::new();
        let file = format!("{}.maya", k.name);
        let r = span_opt(tr.as_deref_mut(), "core.add_source", || {
            c.add_source(&file, &k.source)
        })
        .and_then(|_| span_opt(tr.as_deref_mut(), "core.compile", || c.compile()))
        .and_then(|_| {
            let t = Instant::now();
            let out = span_opt(tr, "interp.run_main", || c.run_main("Main"));
            out.map(|o| (t.elapsed().as_secs_f64() * 1e3, o))
        })
        .map_err(|e| e.message);
        match r {
            Ok((ms, out)) if out == k.expected => (ms, Ok(())),
            Ok((ms, _)) => (
                ms,
                Err(format!(
                    "{}: output differs from the expected output",
                    k.name
                )),
            ),
            Err(e) => (0.0, Err(format!("{}: {e}", k.name))),
        }
    }

    fn run(
        &mut self,
        ctx: &Ctx,
        n: usize,
        s: &mut Sentinels,
        mut tr: Option<&mut Tracer>,
    ) -> Measured {
        let mut m = Measured::default();
        let started = Instant::now();
        for i in 0..n {
            if ctx.out_of_time() {
                m.fail("out of time".into());
                break;
            }
            let (ms, verdict) = self.op(tr.as_deref_mut());
            m.record(ms, verdict);
            if i % SENTINEL_EVERY == SENTINEL_EVERY - 1 {
                s.sample(ctx);
            }
        }
        m.wall_s = started.elapsed().as_secs_f64();
        m.peak_rss_kb = proc::vm_hwm_kb(std::process::id()).unwrap_or(0);
        m
    }

    fn layer_inputs(&self) -> Vec<LayerInput> {
        self.kernels
            .iter()
            .map(|k| {
                let p = Program::clean(
                    k.name.clone(),
                    vec![(format!("{}.maya", k.name), k.source.clone())],
                    k.expected.clone(),
                );
                LayerInput {
                    program: p.clone(),
                    versions: vec![p],
                }
            })
            .collect()
    }
}
