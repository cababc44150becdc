//! A lasting oracle for the LALR(1) builder: canonical LR(1) automata of
//! small seeded grammars, merged by LR(0) core, must give exactly the
//! builder's actions, gotos, default reductions and conflicting entries.
//!
//! The oracle shares only the terminal interning and the LR(0) transitions
//! (to name states as the builder numbers them) with the builder: its
//! items are `(production, dot, lookahead)` triples over plain [`Sym`]s,
//! its closure is the textbook one, and its tables are filled by an
//! order-free statement of the resolution rules.
//! The grammars come from a deterministic xorshift generator and mix
//! ε-productions, nullable chains, `includes` cycles through nullable
//! right contexts, operator precedence and non-associativity.

use super::{build, build_lr0, intern_terms, Gen};
use crate::build::GrammarData;
use crate::prod::{Action, Assoc, ProdId};
use crate::symbol::{NtId, Sym, Terminal};
use crate::tables::{ActionEntry, TermId};
use crate::GrammarBuilder;
use maya_lexer::{sym, TokenKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

const OPS: [TokenKind; 3] = [TokenKind::Plus, TokenKind::Star, TokenKind::EqEq];

/// A random grammar of 2–5 nonterminals over the words `a`..`d` and three
/// operators.
fn random_grammar(seed: u64) -> crate::Grammar {
    let mut r = Rng::new(seed);
    let mut b = GrammarBuilder::new();
    let n_nts = 2 + r.below(4);
    let nts: Vec<NtId> = (0..n_nts)
        .map(|i| b.fresh_nonterminal(&format!("N{i}")))
        .collect();
    let words: Vec<Terminal> = ["a", "b", "c", "d"]
        .iter()
        .map(|w| Terminal::Word(sym(w)))
        .collect();
    let assocs = [Assoc::Left, Assoc::Right, Assoc::NonAssoc];
    for op in OPS {
        if r.chance(70) {
            b.set_prec(Terminal::Tok(op), 1 + r.below(3) as u16, assocs[r.below(3)]);
        }
    }
    let term = |r: &mut Rng| {
        if r.chance(30) {
            Sym::T(Terminal::Tok(OPS[r.below(OPS.len())]))
        } else {
            Sym::T(words[r.below(words.len())])
        }
    };
    for (i, &lhs) in nts.iter().enumerate() {
        for _ in 0..1 + r.below(3) {
            let rhs: Vec<Sym> = match r.below(8) {
                // ε
                0 => Vec::new(),
                // A nullable chain or a left/right recursion.
                1 => vec![Sym::N(nts[r.below(n_nts)]), Sym::N(nts[r.below(n_nts)])],
                // An operator production `N → N op N`.
                2 => vec![
                    Sym::N(lhs),
                    Sym::T(Terminal::Tok(OPS[r.below(3)])),
                    Sym::N(lhs),
                ],
                // A cycle through the next nonterminal with a nullable tail:
                // `Ni → x Ni+1 Nj`.
                3 => vec![
                    term(&mut r),
                    Sym::N(nts[(i + 1) % n_nts]),
                    Sym::N(nts[r.below(n_nts)]),
                ],
                _ => (0..1 + r.below(3))
                    .map(|_| {
                        if r.chance(45) {
                            Sym::N(nts[r.below(n_nts)])
                        } else {
                            term(&mut r)
                        }
                    })
                    .collect(),
            };
            let prec = r
                .chance(15)
                .then(|| (1 + r.below(3) as u16, assocs[r.below(3)]));
            b.add_lowered(lhs, rhs, Action::Dispatch, prec);
        }
    }
    b.finish()
}

/// An LR(1) state: `(production, dot)` items of the extended grammar
/// (real productions, then `__Start → Goal(nt) nt` for each `nt ≥ 1`),
/// each with its lookahead set. Items whose lookahead set is empty are
/// kept, as LR(0) closure keeps them: a nonterminal with an empty FIRST
/// set still contributes transitions.
type State1 = BTreeMap<(u32, u16), BTreeSet<TermId>>;

struct Canonical<'g> {
    g: &'g GrammarData,
    ext: Vec<(NtId, Vec<Sym>)>,
    term_ids: HashMap<Terminal, TermId>,
    first: Vec<BTreeSet<TermId>>,
    nullable: Vec<bool>,
}

impl<'g> Canonical<'g> {
    fn new(g: &'g GrammarData) -> Canonical<'g> {
        let mut ext: Vec<(NtId, Vec<Sym>)> =
            g.prods.iter().map(|p| (p.lhs, p.rhs.clone())).collect();
        for nt in 1..g.nts.len() as u32 {
            ext.push((
                NtId(0),
                vec![Sym::T(Terminal::Goal(NtId(nt))), Sym::N(NtId(nt))],
            ));
        }
        let (_, term_ids) = intern_terms(g);
        let mut c = Canonical {
            g,
            ext,
            term_ids,
            first: vec![BTreeSet::new(); g.nts.len()],
            nullable: vec![false; g.nts.len()],
        };
        loop {
            let mut changed = false;
            for p in 0..c.ext.len() {
                let (first, nullable) = c.first_of(&c.ext[p].1);
                let lhs = c.ext[p].0 .0 as usize;
                for t in first {
                    changed |= c.first[lhs].insert(t);
                }
                if nullable && !c.nullable[lhs] {
                    c.nullable[lhs] = true;
                    changed = true;
                }
            }
            if !changed {
                return c;
            }
        }
    }

    fn first_of(&self, syms: &[Sym]) -> (BTreeSet<TermId>, bool) {
        let mut out = BTreeSet::new();
        for s in syms {
            match s {
                Sym::T(t) => {
                    out.insert(self.term_ids[t]);
                    return (out, false);
                }
                Sym::N(nt) => {
                    out.extend(&self.first[nt.0 as usize]);
                    if !self.nullable[nt.0 as usize] {
                        return (out, false);
                    }
                }
            }
        }
        (out, true)
    }

    fn next_sym(&self, (p, dot): (u32, u16)) -> Option<Sym> {
        self.ext[p as usize].1.get(dot as usize).copied()
    }

    fn closure(&self, mut state: State1) -> State1 {
        let mut work: Vec<(u32, u16)> = state.keys().copied().collect();
        while let Some(item) = work.pop() {
            let Some(Sym::N(b)) = self.next_sym(item) else {
                continue;
            };
            let (p, dot) = item;
            let (mut las, nullable) = self.first_of(&self.ext[p as usize].1[dot as usize + 1..]);
            if nullable {
                las.extend(&state[&item]);
            }
            for (q, (lhs, _)) in self.ext.iter().enumerate() {
                if *lhs != b {
                    continue;
                }
                let key = (q as u32, 0);
                let fresh = !state.contains_key(&key);
                let set = state.entry(key).or_default();
                let before = set.len();
                set.extend(&las);
                if fresh || set.len() != before {
                    work.push(key);
                }
            }
        }
        state
    }

    /// The canonical LR(1) collection: closed states and their
    /// transitions.
    fn automaton(&self) -> (Vec<State1>, Vec<BTreeMap<Sym, usize>>) {
        let real = self.g.prods.len();
        let start: State1 = (real..self.ext.len())
            .map(|p| {
                let Sym::N(nt) = self.ext[p].1[1] else {
                    unreachable!()
                };
                (
                    (p as u32, 0),
                    BTreeSet::from([self.term_ids[&Terminal::EndOf(nt)]]),
                )
            })
            .collect();
        let mut states = vec![self.closure(start)];
        let mut index: HashMap<State1, usize> = HashMap::from([(states[0].clone(), 0)]);
        let mut trans = Vec::new();
        let mut i = 0;
        while i < states.len() {
            let mut by_sym: BTreeMap<Sym, State1> = BTreeMap::new();
            for (&item, las) in &states[i] {
                if let Some(x) = self.next_sym(item) {
                    by_sym
                        .entry(x)
                        .or_default()
                        .insert((item.0, item.1 + 1), las.clone());
                }
            }
            let mut row = BTreeMap::new();
            for (x, kernel) in by_sym {
                let closed = self.closure(kernel);
                let j = *index.entry(closed.clone()).or_insert_with(|| {
                    states.push(closed);
                    states.len() - 1
                });
                row.insert(x, j);
            }
            trans.push(row);
            i += 1;
        }
        (states, trans)
    }

    fn prod_prec(&self, p: u32) -> Option<(u16, Assoc)> {
        let prod = &self.g.prods[p as usize];
        prod.prec.or_else(|| {
            let last = prod.rhs.iter().rev().find_map(|s| s.terminal())?;
            self.g.term_prec.get(&last).copied()
        })
    }
}

/// The oracle's tables for one grammar, keyed by the builder's state
/// numbers.
struct Expected {
    action: HashMap<(u32, TermId), ActionEntry>,
    goto_: HashMap<(u32, NtId), u32>,
    default_reduce: HashMap<u32, ProdId>,
    /// Cells with more than one surviving action.
    conflicts: BTreeSet<(u32, Terminal)>,
}

/// Merges the canonical LR(1) states by LR(0) core, naming each merged
/// state by replaying its LR(1) path on the builder's LR(0) automaton, and
/// fills the tables from the merged lookaheads.
fn expected(g: &GrammarData) -> Expected {
    let c = Canonical::new(g);
    let (states, trans) = c.automaton();
    let gen = Gen::new(g);
    let aut = build_lr0(&gen);
    let sym_id = |x: Sym| match x {
        Sym::N(nt) => gen.n_terms + nt.0,
        Sym::T(t) => gen
            .sym_term
            .iter()
            .position(|&id| id == c.term_ids[&t])
            .unwrap() as u32,
    };

    let mut merged: Vec<Option<u32>> = vec![None; states.len()];
    merged[0] = Some(0);
    let mut work = vec![0usize];
    while let Some(i) = work.pop() {
        let s = merged[i].unwrap();
        for (&x, &j) in &trans[i] {
            let t = aut.to[aut.find(s, sym_id(x))];
            match merged[j] {
                Some(old) => assert_eq!(old, t, "LR(1) state {j} reached as two builder states"),
                None => {
                    merged[j] = Some(t);
                    work.push(j);
                }
            }
        }
    }
    let mut core_of: HashMap<u32, BTreeSet<(u32, u16)>> = HashMap::new();
    for (i, st) in states.iter().enumerate() {
        let core: BTreeSet<(u32, u16)> = st.keys().copied().collect();
        let s = merged[i].expect("every LR(1) state is reachable");
        let prev = core_of.entry(s).or_insert_with(|| core.clone());
        assert_eq!(*prev, core, "builder state {s} holds two LR(0) cores");
    }
    assert_eq!(
        core_of.len() as u32,
        aut.n_states(),
        "one builder state per LR(0) core"
    );

    let mut reduce: BTreeMap<(u32, TermId), BTreeSet<u32>> = BTreeMap::new();
    let mut complete: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut shift: BTreeMap<(u32, TermId), u32> = BTreeMap::new();
    let mut goto_ = HashMap::new();
    for (i, st) in states.iter().enumerate() {
        let s = merged[i].unwrap();
        for (&item, las) in st {
            if c.next_sym(item).is_none() {
                for &t in las {
                    reduce.entry((s, t)).or_default().insert(item.0);
                }
                complete.entry(s).or_default().insert(item.0);
            }
        }
        for (&x, &j) in &trans[i] {
            let to = merged[j].unwrap();
            match x {
                Sym::N(nt) => goto_.insert((s, nt), to),
                Sym::T(t) => shift.insert((s, c.term_ids[&t]), to),
            };
        }
    }

    let real = g.prods.len() as u32;
    let (terms, _) = intern_terms(g);
    let mut action = HashMap::new();
    let mut conflicts = BTreeSet::new();
    let cells: BTreeSet<(u32, TermId)> = reduce.keys().chain(shift.keys()).copied().collect();
    for cell in cells {
        let t = terms[cell.1 as usize];
        let reduces: Vec<u32> = reduce
            .get(&cell)
            .map_or(Vec::new(), |r| r.iter().copied().collect());
        match (&reduces[..], shift.get(&cell)) {
            ([], Some(&j)) => {
                action.insert(cell, ActionEntry::Shift(j));
            }
            (&[p], None) if p >= real => {
                action.insert(cell, ActionEntry::Accept);
            }
            (&[p], None) => {
                action.insert(cell, ActionEntry::Reduce(ProdId(p)));
            }
            (&[p], Some(&j)) if p < real => {
                match (c.prod_prec(p), g.term_prec.get(&t).copied()) {
                    (Some((pl, _)), Some((tl, ta))) => {
                        if pl < tl || (pl == tl && ta == Assoc::Right) {
                            action.insert(cell, ActionEntry::Shift(j));
                        } else if pl > tl || ta == Assoc::Left {
                            action.insert(cell, ActionEntry::Reduce(ProdId(p)));
                        } // equal and non-associative: an error entry
                    }
                    _ => {
                        conflicts.insert((cell.0, t));
                    }
                }
            }
            _ => {
                conflicts.insert((cell.0, t));
            }
        }
    }

    let mut default_reduce = HashMap::new();
    for (&s, ps) in &complete {
        let shifts = shift.range((s, 0)..=(s, TermId::MAX)).next().is_some();
        if let (false, &[p]) = (shifts, &ps.iter().copied().collect::<Vec<_>>()[..]) {
            if p < real {
                default_reduce.insert(s, ProdId(p));
            }
        }
    }
    Expected {
        action,
        goto_,
        default_reduce,
        conflicts,
    }
}

/// Checks one seeded grammar; true when it is LALR(1) after precedence.
fn check(seed: u64) -> bool {
    let g = random_grammar(seed);
    let (tables, conflicts) = build(g.data());
    let e = expected(g.data());
    let got: BTreeSet<(u32, Terminal)> = conflicts.iter().map(|c| (c.state, c.on)).collect();
    assert_eq!(
        e.conflicts,
        got,
        "seed {seed}: conflicting cells differ\n{}",
        g.dump()
    );
    if !got.is_empty() {
        return false;
    }
    assert_eq!(
        e.action,
        tables.action,
        "seed {seed}: ACTION differs\n{}",
        g.dump()
    );
    assert_eq!(
        e.goto_,
        tables.goto_,
        "seed {seed}: GOTO differs\n{}",
        g.dump()
    );
    assert_eq!(
        e.default_reduce,
        tables.default_reduce,
        "seed {seed}: default reductions differ\n{}",
        g.dump()
    );
    true
}

#[test]
fn builder_matches_merged_canonical_lr1() {
    let (mut clean, mut conflicting) = (0, 0);
    for seed in 1..=400 {
        if check(seed) {
            clean += 1;
        } else {
            conflicting += 1;
        }
    }
    // Both verdicts must be well represented for the oracle to mean much.
    assert!(
        clean >= 60 && conflicting >= 60,
        "{clean} clean, {conflicting} conflicting"
    );
}

#[test]
fn generator_covers_the_interesting_shapes() {
    let (mut eps, mut nonassoc, mut prec) = (0, 0, 0);
    for seed in 1..=400 {
        let g = random_grammar(seed);
        let d = g.data();
        eps += d.prods.iter().any(|p| p.rhs.is_empty()) as u32;
        nonassoc += d.term_prec.values().any(|&(_, a)| a == Assoc::NonAssoc) as u32;
        prec += d.prods.iter().any(|p| p.prec.is_some()) as u32;
    }
    assert!(
        eps >= 100 && nonassoc >= 100 && prec >= 100,
        "{eps} {nonassoc} {prec}"
    );
}
