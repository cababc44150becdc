//! The LALR(1) generator: the LR(0) automaton over dense symbol and item
//! ids, LALR(1) lookaheads from DeRemer & Pennello's reads, includes and
//! lookback relations ("Efficient Computation of LALR(1) Look-Ahead Sets",
//! TOPLAS 1982), and table construction with operator-precedence conflict
//! resolution.
//!
//! Unlike YACC, unresolved shift/reduce conflicts are *not* resolved in
//! favor of shifts, and reduce/reduce conflicts are *not* resolved by
//! production order: the grammar is rejected (paper §4.1).

use crate::build::{GrammarData, GrammarError};
use crate::prod::{Assoc, ProdId};
use crate::symbol::{NtId, Sym, Terminal};
use crate::tables::{ActionEntry, Conflict, Tables, TermId};
use crate::BitSet;
use std::collections::HashMap;
use std::ops::Range;

/// `item_next` of an item whose dot is at the end of its production.
const COMPLETE: u32 = u32::MAX;

/// Interns every terminal of the extended grammar in a deterministic order:
/// the real productions' terminals in rhs order, then each synthetic start
/// production's `Goal(nt)` marker, then the per-goal `EndOf(nt)` terminals.
/// This order is a pure function of [`GrammarData`], which is what lets the
/// on-disk table cache store bare [`TermId`]s and recompute the terminal
/// vector on load instead of serializing interner state.
pub(crate) fn intern_terms(g: &GrammarData) -> (Vec<Terminal>, HashMap<Terminal, TermId>) {
    let mut terms = Vec::new();
    let mut term_ids = HashMap::new();
    let mut intern = |t: Terminal, terms: &mut Vec<Terminal>| {
        term_ids.entry(t).or_insert_with(|| {
            terms.push(t);
            (terms.len() - 1) as TermId
        });
    };
    for p in &g.prods {
        for s in &p.rhs {
            if let Sym::T(t) = s {
                intern(*t, &mut terms);
            }
        }
    }
    for nt_idx in 1..g.nts.len() {
        intern(Terminal::Goal(NtId(nt_idx as u32)), &mut terms);
    }
    // Per-goal end terminals (see Terminal::EndOf).
    for nt_idx in 1..g.nts.len() {
        intern(Terminal::EndOf(NtId(nt_idx as u32)), &mut terms);
    }
    (terms, term_ids)
}

/// The extended grammar on dense ids: the real productions followed by one
/// synthetic start production `__Start → Goal(nt) nt` per nonterminal
/// `nt ≥ 1`.
///
/// Symbol ids put the terminals first, numbered in `Terminal` order, and
/// nonterminal `nt` at `n_terms + nt`, so sorting symbol ids sorts symbols
/// in `Sym` order, the order that fixes the state numbering. Item
/// `(p, dot)` has id `first_item[p] + dot`, so item ids sort like
/// `(p, dot)` pairs.
struct Gen<'g> {
    g: &'g GrammarData,
    terms: Vec<Terminal>,
    term_ids: HashMap<Terminal, TermId>,
    n_terms: u32,
    /// The [`TermId`] of each terminal symbol id.
    sym_term: Vec<TermId>,
    /// Left-hand side per production.
    lhs: Vec<u32>,
    /// First item id per production, plus one past the last item.
    first_item: Vec<u32>,
    /// The symbol after the dot per item, or [`COMPLETE`].
    item_next: Vec<u32>,
    /// Per production, the first item from which the rest of the
    /// right-hand side derives ε.
    nullable_from: Vec<u32>,
    /// Productions per nonterminal.
    prods_of: Vec<Vec<u32>>,
    first_nt: Vec<BitSet>,
    nullable_nt: Vec<bool>,
}

impl<'g> Gen<'g> {
    fn new(g: &'g GrammarData) -> Gen<'g> {
        let (terms, term_ids) = intern_terms(g);
        let n_terms = terms.len() as u32;
        let n_nts = g.nts.len();
        let mut sym_term: Vec<TermId> = (0..n_terms).collect();
        sym_term.sort_unstable_by_key(|&t| terms[t as usize]);
        let mut term_sym = vec![0; terms.len()];
        for (s, &t) in sym_term.iter().enumerate() {
            term_sym[t as usize] = s as u32;
        }
        let sym_id = |s: &Sym| match s {
            Sym::T(t) => term_sym[term_ids[t] as usize],
            Sym::N(nt) => n_terms + nt.0,
        };

        let n_prods = g.prods.len() + n_nts.saturating_sub(1);
        let mut lhs = Vec::with_capacity(n_prods);
        let mut first_item = Vec::with_capacity(n_prods + 1);
        let mut item_next = Vec::new();
        first_item.push(0);
        for p in &g.prods {
            lhs.push(p.lhs.0);
            item_next.extend(p.rhs.iter().map(sym_id));
            item_next.push(COMPLETE);
            first_item.push(item_next.len() as u32);
        }
        for nt in 1..n_nts as u32 {
            lhs.push(0);
            let goal = sym_id(&Sym::T(Terminal::Goal(NtId(nt))));
            item_next.extend([goal, n_terms + nt, COMPLETE]);
            first_item.push(item_next.len() as u32);
        }
        let mut prods_of = vec![Vec::new(); n_nts];
        for (p, &l) in lhs.iter().enumerate() {
            prods_of[l as usize].push(p as u32);
        }

        let mut gen = Gen {
            g,
            terms,
            term_ids,
            n_terms,
            sym_term,
            lhs,
            first_item,
            item_next,
            nullable_from: Vec::with_capacity(n_prods),
            prods_of,
            first_nt: vec![BitSet::new(); n_nts],
            nullable_nt: vec![false; n_nts],
        };
        gen.compute_first();
        for p in 0..n_prods {
            let rhs = gen.rhs(p as u32);
            let tail = rhs
                .iter()
                .rev()
                .take_while(|&&s| gen.nt_of(s).is_some_and(|nt| gen.nullable_nt[nt as usize]))
                .count();
            gen.nullable_from.push(gen.first_item[p] + (rhs.len() - tail) as u32);
        }
        gen
    }

    fn compute_first(&mut self) {
        loop {
            let mut changed = false;
            for p in 0..self.lhs.len() {
                let lhs_i = self.lhs[p] as usize;
                let mut all_nullable = true;
                let mut acc = BitSet::new();
                for &s in self.rhs(p as u32) {
                    match self.nt_of(s) {
                        None => {
                            acc.insert(self.sym_term[s as usize]);
                            all_nullable = false;
                        }
                        Some(nt) => {
                            acc.union_with(&self.first_nt[nt as usize]);
                            if !self.nullable_nt[nt as usize] {
                                all_nullable = false;
                            }
                        }
                    }
                    if !all_nullable {
                        break;
                    }
                }
                changed |= self.first_nt[lhs_i].union_with(&acc);
                if all_nullable && !self.nullable_nt[lhs_i] {
                    self.nullable_nt[lhs_i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn rhs(&self, p: u32) -> &[u32] {
        let (a, b) = (self.first_item[p as usize], self.first_item[p as usize + 1]);
        &self.item_next[a as usize..b as usize - 1]
    }

    /// The nonterminal of a symbol id, `None` for terminals and
    /// [`COMPLETE`].
    fn nt_of(&self, s: u32) -> Option<u32> {
        (s != COMPLETE && s >= self.n_terms).then(|| s - self.n_terms)
    }
}

/// The LR(0) automaton: state `s`'s transitions are `sym`/`to` over
/// [`Lr0::row`], sorted by symbol id, so terminals come first. A
/// transition's flat index names it in the lookahead relations.
struct Lr0 {
    row: Vec<u32>,
    sym: Vec<u32>,
    to: Vec<u32>,
}

impl Lr0 {
    fn n_states(&self) -> u32 {
        self.row.len() as u32 - 1
    }

    fn row(&self, s: u32) -> Range<usize> {
        self.row[s as usize] as usize..self.row[s as usize + 1] as usize
    }

    /// The index of the transition from `s` on symbol id `x`, which must
    /// exist.
    fn find(&self, s: u32, x: u32) -> usize {
        let r = self.row(s);
        r.start + self.sym[r].binary_search(&x).expect("transition exists")
    }
}

/// Builds the LR(0) automaton breadth-first from the start state, whose
/// kernel is every start item. A state's successors are numbered in symbol
/// order as they are first reached.
fn build_lr0(gen: &Gen<'_>) -> Lr0 {
    let real_count = gen.g.prods.len();
    let start: Vec<u32> = (real_count..gen.lhs.len())
        .map(|p| gen.first_item[p])
        .collect();
    let mut kernels = vec![start.clone()];
    let mut index: HashMap<Vec<u32>, u32> = HashMap::from([(start, 0)]);
    let mut aut = Lr0 {
        row: vec![0],
        sym: Vec::new(),
        to: Vec::new(),
    };
    // Advanced items per symbol id, and the symbols with any.
    let mut next: Vec<Vec<u32>> = vec![Vec::new(); gen.n_terms as usize + gen.g.nts.len()];
    let mut touched: Vec<u32> = Vec::new();
    let add = |item: u32, next: &mut Vec<Vec<u32>>, touched: &mut Vec<u32>| {
        let s = gen.item_next[item as usize];
        if s != COMPLETE {
            if next[s as usize].is_empty() {
                touched.push(s);
            }
            next[s as usize].push(item + 1);
        }
    };
    // The state that last added a nonterminal's dot-0 items, and the
    // nonterminals whose items are still to add.
    let mut added = vec![u32::MAX; gen.g.nts.len()];
    let mut closing: Vec<u32> = Vec::new();
    let mut s = 0;
    while (s as usize) < kernels.len() {
        for &item in &kernels[s as usize] {
            add(item, &mut next, &mut touched);
            closing.extend(gen.nt_of(gen.item_next[item as usize]));
            while let Some(c) = closing.pop() {
                if std::mem::replace(&mut added[c as usize], s) != s {
                    for &p in &gen.prods_of[c as usize] {
                        let first = gen.first_item[p as usize];
                        add(first, &mut next, &mut touched);
                        closing.extend(gen.nt_of(gen.item_next[first as usize]));
                    }
                }
            }
        }
        touched.sort_unstable();
        for &x in &touched {
            let mut kernel = std::mem::take(&mut next[x as usize]);
            kernel.sort_unstable();
            let to = match index.get(&kernel) {
                Some(&j) => {
                    kernel.clear();
                    next[x as usize] = kernel;
                    j
                }
                None => {
                    let j = kernels.len() as u32;
                    index.insert(kernel.clone(), j);
                    kernels.push(kernel);
                    j
                }
            };
            aut.sym.push(x);
            aut.to.push(to);
        }
        touched.clear();
        aut.row.push(aut.sym.len() as u32);
        s += 1;
    }
    aut
}

/// A relation over transitions in compressed-row form: the successors of
/// `x` are `succ[start[x]..start[x + 1]]`.
struct Relation {
    start: Vec<u32>,
    succ: Vec<u32>,
}

impl Relation {
    /// The relation over `n` transitions holding the `(x, y)` pairs.
    fn new(n: usize, mut pairs: Vec<(u32, u32)>) -> Relation {
        pairs.sort_unstable();
        let mut start = Vec::with_capacity(n + 1);
        let mut at = 0;
        for x in 0..=n as u32 {
            start.push(at as u32);
            while pairs.get(at).is_some_and(|&(from, _)| from == x) {
                at += 1;
            }
        }
        Relation {
            start,
            succ: pairs.into_iter().map(|(_, y)| y).collect(),
        }
    }

    fn successors(&self, x: usize) -> &[u32] {
        &self.succ[self.start[x] as usize..self.start[x + 1] as usize]
    }
}

/// Flat bit rows over terminal ids, `words` words per row.
struct Rows {
    words: usize,
    bits: Vec<u64>,
}

impl Rows {
    fn insert(&mut self, row: usize, t: TermId) {
        self.bits[row * self.words + t as usize / 64] |= 1 << (t % 64);
    }

    /// `row |= other`.
    fn union(&mut self, row: usize, other: usize) {
        let w = self.words;
        for i in 0..w {
            self.bits[row * w + i] |= self.bits[other * w + i];
        }
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }
}

/// DeRemer & Pennello's `digraph`: makes every row `x` (of the relation's
/// nodes) the union of its initial contents and the final rows of its
/// successors. One depth-first pass in Tarjan's style finds the strongly
/// connected components, whose members all get the same row.
fn digraph(rel: &Relation, rows: &mut Rows) {
    const DONE: u32 = u32::MAX;
    let n = rel.start.len() - 1;
    // 0 = unvisited; else the depth at which the node was entered, lowered
    // to the least depth it reaches; DONE once its component is closed.
    let mut depth = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    // (node, its entry depth, successors visited so far).
    let mut frames: Vec<(u32, u32, u32)> = Vec::new();
    for root in 0..n as u32 {
        if depth[root as usize] != 0 {
            continue;
        }
        stack.push(root);
        depth[root as usize] = stack.len() as u32;
        frames.push((root, stack.len() as u32, 0));
        while let Some(frame) = frames.last_mut() {
            let (x, d, k) = *frame;
            let succ = rel.successors(x as usize);
            if let Some(&y) = succ.get(k as usize) {
                frame.2 += 1;
                if depth[y as usize] == 0 {
                    stack.push(y);
                    depth[y as usize] = stack.len() as u32;
                    frames.push((y, stack.len() as u32, 0));
                } else {
                    depth[x as usize] = depth[x as usize].min(depth[y as usize]);
                    rows.union(x as usize, y as usize);
                }
                continue;
            }
            frames.pop();
            if depth[x as usize] == d {
                while let Some(top) = stack.pop() {
                    depth[top as usize] = DONE;
                    if top == x {
                        break;
                    }
                    rows.union(top as usize, x as usize);
                }
            }
            if let Some(&(parent, _, _)) = frames.last() {
                depth[parent as usize] = depth[parent as usize].min(depth[x as usize]);
                rows.union(parent as usize, x as usize);
            }
        }
    }
}

/// The LALR(1) lookaheads of every reduction.
struct Lookaheads {
    /// `(state, production, row)`, sorted: the production reduces in the
    /// state on every terminal of each of its rows. Row `x` below the
    /// number of transitions is Follow of nonterminal transition `x`, the
    /// transition the reduction looks back to.
    reductions: Vec<(u32, u32, u32)>,
    rows: Rows,
}

/// Computes the lookaheads of every reduction with DeRemer & Pennello's
/// relations over the nonterminal transitions `x = (p, A)`:
///
/// * `DR(p, A)`: the terminals shifted in `goto(p, A)`;
/// * `(p, A) reads (r, C)` when `r = goto(p, A)` and `C ⇒* ε`;
///   `Read = digraph(DR, reads)`;
/// * `(p, A) includes (p', B)` when `B → β A γ`, `γ ⇒* ε` and `p'`
///   reaches `p` on `β`; `Follow = digraph(Read, includes)`;
/// * `(q, B → ω) lookback (p', B)` when `p'` reaches `q` on `ω`, and the
///   reduction's lookaheads are the union of those Follow sets.
///
/// Every transition gets a row (a terminal transition's stays empty). The
/// start items `__Start → · Goal(nt) nt` of state 0 are no transition's
/// target: their lookahead `EndOf(nt)` seeds `DR` of the transition on `nt`
/// after the goal marker, and an extra row per goal holds the accept
/// reduction's lookahead, which is exactly `{EndOf(nt)}`.
fn lalr_lookaheads(gen: &Gen<'_>, aut: &Lr0) -> Lookaheads {
    let n_x = aut.to.len();
    let n_goals = gen.g.nts.len().saturating_sub(1);
    let words = (gen.n_terms as usize).div_ceil(64).max(1);
    let mut rows = Rows {
        words,
        bits: vec![0; (n_x + n_goals) * words],
    };
    let mut reads = Vec::new();
    for x in 0..n_x {
        if gen.nt_of(aut.sym[x]).is_none() {
            continue;
        }
        for y in aut.row(aut.to[x]) {
            match gen.nt_of(aut.sym[y]) {
                None => rows.insert(x, gen.sym_term[aut.sym[y] as usize]),
                Some(c) if gen.nullable_nt[c as usize] => reads.push((x as u32, y as u32)),
                Some(_) => {}
            }
        }
    }

    let real_count = gen.g.prods.len() as u32;
    let mut reductions = Vec::with_capacity(n_x * 2);
    for nt in 1..=n_goals as u32 {
        let p = real_count + nt - 1;
        let end = gen.term_ids[&Terminal::EndOf(NtId(nt))];
        let goal_row = n_x as u32 + nt - 1;
        rows.insert(goal_row as usize, end);
        let goal = gen.item_next[gen.first_item[p as usize] as usize];
        let x = aut.find(aut.to[aut.find(0, goal)], gen.n_terms + nt);
        rows.insert(x, end);
        reductions.push((aut.to[x], p, goal_row));
    }

    let mut includes = Vec::new();
    for from in 0..aut.n_states() {
        for y in aut.row(from) {
            let Some(b) = gen.nt_of(aut.sym[y]) else {
                continue;
            };
            for &p in &gen.prods_of[b as usize] {
                let mut s = from;
                let mut item = gen.first_item[p as usize];
                while gen.item_next[item as usize] != COMPLETE {
                    let x = aut.find(s, gen.item_next[item as usize]);
                    if gen.nt_of(aut.sym[x]).is_some() && item + 1 >= gen.nullable_from[p as usize] {
                        includes.push((x as u32, y as u32));
                    }
                    s = aut.to[x];
                    item += 1;
                }
                reductions.push((s, p, y as u32));
            }
        }
    }

    digraph(&Relation::new(n_x, reads), &mut rows);
    digraph(&Relation::new(n_x, includes), &mut rows);
    reductions.sort_unstable();
    Lookaheads { reductions, rows }
}

/// The effective precedence of a real production: explicit, else that of
/// its rightmost terminal.
fn prod_prec(g: &GrammarData, prod: ProdId) -> Option<(u16, Assoc)> {
    let p = &g.prods[prod.0 as usize];
    p.prec.or_else(|| {
        p.rhs
            .iter()
            .rev()
            .find_map(|s| s.terminal())
            .and_then(|t| g.term_prec.get(&t).copied())
    })
}

/// Fills ACTION and GOTO state by state: reductions (in production order,
/// lookaheads ascending), then shifts in symbol order with precedence-based
/// shift/reduce resolution. Conflicts therefore come out in a fixed order,
/// sorted by state.
fn fill(gen: Gen<'_>, aut: &Lr0, la: &Lookaheads) -> (Tables, Vec<Conflict>) {
    let g = gen.g;
    let real_count = g.prods.len() as u32;
    let mut actions: Vec<((u32, TermId), ActionEntry)> =
        Vec::with_capacity(aut.to.len() + la.reductions.len() * 4);
    let mut goto_ = HashMap::with_capacity(aut.to.len());
    let mut conflicts: Vec<Conflict> = Vec::new();
    let mut default_reduce: HashMap<u32, ProdId> = HashMap::new();
    // The state's actions by terminal id, and the terminal ids set.
    let mut slot: Vec<Option<ActionEntry>> = vec![None; gen.terms.len()];
    let mut used: Vec<TermId> = Vec::new();
    let mut las = vec![0u64; la.rows.words];
    let mut reductions = la.reductions.iter().peekable();
    for q in 0..aut.n_states() {
        let mut complete = Vec::new();
        while let Some(&&(_, prod, _)) = reductions.peek().filter(|r| r.0 == q) {
            las.fill(0);
            while let Some((_, _, row)) = reductions.next_if(|r| r.0 == q && r.1 == prod) {
                for (w, &bits) in las.iter_mut().zip(la.rows.row(*row as usize)) {
                    *w |= bits;
                }
            }
            complete.push(prod);
            let entry = if prod >= real_count {
                ActionEntry::Accept
            } else {
                ActionEntry::Reduce(ProdId(prod))
            };
            for (wi, &word) in las.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let t = (wi * 64) as TermId + bits.trailing_zeros();
                    bits &= bits - 1;
                    match slot[t as usize] {
                        None => {
                            slot[t as usize] = Some(entry);
                            used.push(t);
                        }
                        Some(existing) if existing == entry => {}
                        Some(ActionEntry::Reduce(other)) => conflicts.push(Conflict {
                            state: q,
                            on: gen.terms[t as usize],
                            description: format!(
                                "reduce/reduce conflict between productions {} and {prod}",
                                other.0
                            ),
                        }),
                        Some(other) => conflicts.push(Conflict {
                            state: q,
                            on: gen.terms[t as usize],
                            description: format!("conflict between {entry:?} and {other:?}"),
                        }),
                    }
                }
            }
        }

        let mut shifts = false;
        for i in aut.row(q) {
            if let Some(nt) = gen.nt_of(aut.sym[i]) {
                goto_.insert((q, NtId(nt)), aut.to[i]);
                continue;
            }
            shifts = true;
            let tid = gen.sym_term[aut.sym[i] as usize];
            let t = gen.terms[tid as usize];
            let shift = ActionEntry::Shift(aut.to[i]);
            match slot[tid as usize] {
                None => {
                    slot[tid as usize] = Some(shift);
                    used.push(tid);
                }
                Some(ActionEntry::Reduce(prod)) => {
                    match (prod_prec(g, prod), g.term_prec.get(&t).copied()) {
                        (Some((pl, _)), Some((tl, ta))) => {
                            if pl < tl || (pl == tl && ta == Assoc::Right) {
                                slot[tid as usize] = Some(shift);
                            } else if pl == tl && ta == Assoc::NonAssoc {
                                // An explicit syntax error.
                                slot[tid as usize] = None;
                            }
                        }
                        _ => conflicts.push(Conflict {
                            state: q,
                            on: t,
                            description: format!(
                                "shift/reduce conflict (reduce production {}) not resolved \
                                 by precedence",
                                prod.0
                            ),
                        }),
                    }
                }
                Some(other) => conflicts.push(Conflict {
                    state: q,
                    on: t,
                    description: format!("shift conflicts with {other:?}"),
                }),
            }
        }
        for t in used.drain(..) {
            if let Some(entry) = slot[t as usize].take() {
                actions.push(((q, t), entry));
            }
        }

        // Default reductions: a state with no shifts and exactly one
        // complete (non-start) item reduces unconditionally.
        if let [p] = complete[..] {
            if p < real_count && !shifts {
                default_reduce.insert(q, ProdId(p));
            }
        }
    }
    let tables = Tables {
        n_states: aut.n_states(),
        action: actions.into_iter().collect(),
        goto_,
        terms: gen.terms,
        term_ids: gen.term_ids,
        first_nt: gen.first_nt,
        nullable_nt: gen.nullable_nt,
        default_reduce,
    };
    (tables, conflicts)
}

/// Builds the LALR(1) tables of `g`, or rejects it with every unresolved
/// conflict, in state order.
pub(crate) fn build_tables(g: &GrammarData) -> Result<Tables, GrammarError> {
    let _p = maya_telemetry::phase(maya_telemetry::Phase::TableBuild);
    maya_telemetry::count(maya_telemetry::Counter::TablesBuilt);
    let (tables, conflicts) = build(g);
    if conflicts.is_empty() {
        Ok(tables)
    } else {
        Err(GrammarError::Conflicts(conflicts))
    }
}

/// The tables, filled even where they conflict, and the conflicts.
fn build(g: &GrammarData) -> (Tables, Vec<Conflict>) {
    let (gen, aut) = {
        let _s = maya_telemetry::span("lr0");
        let gen = Gen::new(g);
        let aut = build_lr0(&gen);
        (gen, aut)
    };
    let la = {
        let _s = maya_telemetry::span("lookaheads");
        lalr_lookaheads(&gen, &aut)
    };
    maya_telemetry::trace(maya_telemetry::TraceKind::TableBuild, || {
        (
            format!("{} productions, {} LR(0) states", g.prods.len(), aut.n_states()),
            format!("{} transitions", aut.to.len()),
        )
    });
    let _s = maya_telemetry::span("fill");
    fill(gen, &aut, &la)
}

#[cfg(test)]
#[path = "lalr_oracle.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{GrammarBuilder, RhsItem};
    use maya_ast::NodeKind;
    use maya_lexer::TokenKind;

    /// The grammar of Figure 6(a):
    /// `A → a | b | c;  D → d;  F → f;  S → D e A | F A`.
    fn figure6() -> crate::Grammar {
        let mut b = GrammarBuilder::new();
        // Reuse node kinds as stand-ins for the paper's nonterminals.
        let a = NodeKind::Expression; // A
        let d = NodeKind::Statement; // D
        let f_nt = NodeKind::Formal; // F
        let s = NodeKind::CompilationUnit; // S
        for t in ["a", "b", "c"] {
            b.add_production(a, &[RhsItem::word(t)], None).unwrap();
        }
        b.add_production(d, &[RhsItem::word("d")], None).unwrap();
        b.add_production(f_nt, &[RhsItem::word("f")], None).unwrap();
        b.add_production(s, &[RhsItem::Kind(d), RhsItem::word("e"), RhsItem::Kind(a)], None)
            .unwrap();
        b.add_production(s, &[RhsItem::Kind(f_nt), RhsItem::Kind(a)], None)
            .unwrap();
        b.finish()
    }

    #[test]
    fn figure6_builds() {
        let g = figure6();
        let t = g.tables().expect("figure 6 grammar is LALR(1)");
        assert!(t.n_states() > 5);
        // FIRST(A) = {a, b, c}
        let a_nt = g.nt_for_kind(NodeKind::Expression).unwrap();
        let first: Vec<Terminal> = t.first_of_nt(a_nt).iter().map(|i| t.term(i)).collect();
        assert_eq!(first.len(), 3);
        assert!(!t.nullable(a_nt));
    }

    #[test]
    fn ambiguous_grammar_rejected() {
        // E → E + E without precedence: shift/reduce conflict must reject.
        let mut b = GrammarBuilder::new();
        b.add_production(
            NodeKind::Expression,
            &[
                RhsItem::Kind(NodeKind::Expression),
                RhsItem::tok(TokenKind::Plus),
                RhsItem::Kind(NodeKind::Expression),
            ],
            None,
        )
        .unwrap();
        b.add_production(NodeKind::Expression, &[RhsItem::tok(TokenKind::IntLit)], None)
            .unwrap();
        let g = b.finish();
        match g.tables() {
            Err(GrammarError::Conflicts(cs)) => assert!(!cs.is_empty()),
            other => panic!("expected conflicts, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn conflict_report_is_deterministic() {
        // Each state with an operator has four shift/reduce conflicts: the
        // report must list them in one fixed order, build after build.
        let report = || {
            let mut b = GrammarBuilder::new();
            for op in [TokenKind::Plus, TokenKind::Minus, TokenKind::Star, TokenKind::Slash] {
                b.add_production(
                    NodeKind::Expression,
                    &[
                        RhsItem::Kind(NodeKind::Expression),
                        RhsItem::tok(op),
                        RhsItem::Kind(NodeKind::Expression),
                    ],
                    None,
                )
                .unwrap();
            }
            b.add_production(NodeKind::Expression, &[RhsItem::tok(TokenKind::IntLit)], None)
                .unwrap();
            match b.finish().tables() {
                Err(e @ GrammarError::Conflicts(_)) => e.to_string(),
                other => panic!("expected conflicts, got {:?}", other.map(|_| ())),
            }
        };
        let first = report();
        assert_eq!(first.matches("shift/reduce").count(), 16, "{first}");
        for _ in 0..20 {
            assert_eq!(report(), first);
        }
    }

    #[test]
    fn precedence_resolves_expression_grammar() {
        let mut b = GrammarBuilder::new();
        b.set_prec(Terminal::Tok(TokenKind::Plus), 10, Assoc::Left);
        b.set_prec(Terminal::Tok(TokenKind::Star), 20, Assoc::Left);
        for op in [TokenKind::Plus, TokenKind::Star] {
            b.add_production(
                NodeKind::Expression,
                &[
                    RhsItem::Kind(NodeKind::Expression),
                    RhsItem::tok(op),
                    RhsItem::Kind(NodeKind::Expression),
                ],
                None,
            )
            .unwrap();
        }
        b.add_production(NodeKind::Expression, &[RhsItem::tok(TokenKind::IntLit)], None)
            .unwrap();
        let g = b.finish();
        let t = g.tables().expect("precedence resolves all conflicts");
        assert!(t.n_states() > 3);
    }

    #[test]
    fn nonassoc_kills_entry() {
        let mut b = GrammarBuilder::new();
        b.set_prec(Terminal::Tok(TokenKind::EqEq), 10, Assoc::NonAssoc);
        b.add_production(
            NodeKind::Expression,
            &[
                RhsItem::Kind(NodeKind::Expression),
                RhsItem::tok(TokenKind::EqEq),
                RhsItem::Kind(NodeKind::Expression),
            ],
            None,
        )
        .unwrap();
        b.add_production(NodeKind::Expression, &[RhsItem::tok(TokenKind::IntLit)], None)
            .unwrap();
        let g = b.finish();
        // Grammar builds: `a == b == c` will simply fail to parse at runtime.
        g.tables().expect("nonassoc resolves the conflict by erroring");
    }

    #[test]
    fn epsilon_productions() {
        // L → ε | L x  (via list lowering)
        let mut b = GrammarBuilder::new();
        b.add_production(
            NodeKind::ModifierList,
            &[RhsItem::List(Box::new(RhsItem::word("mod")), None)],
            None,
        )
        .unwrap();
        let g = b.finish();
        let t = g.tables().unwrap();
        let nt = g.nt_for_kind(NodeKind::ModifierList).unwrap();
        assert!(t.nullable(nt));
    }

    #[test]
    fn goal_markers_exist_for_all_nts() {
        let g = figure6();
        let t = g.tables().unwrap();
        for idx in 1..g.nt_count() {
            assert!(
                t.goal_term(NtId(idx as u32)).is_some(),
                "missing goal marker for nt {idx}"
            );
        }
    }
}
