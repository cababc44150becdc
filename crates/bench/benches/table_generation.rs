//! E15: LALR(1) table (re)generation — the cost of extending the grammar,
//! which every `use` of a syntax-adding extension pays (paper §4.1).

use maya_ast::NodeKind;
use maya_bench::timing::{bench_with, Options};
use maya_core::Base;
use maya_grammar::RhsItem;
use maya_lexer::Delim;
use std::time::Duration;

fn main() {
    // Equal grammars share one memoised table set by content hash: turn
    // the memo off so every iteration builds.
    maya_grammar::set_table_cache_enabled(false);
    let base = Base::build();
    let opts = Options {
        warmup: Duration::from_millis(300),
        measurement: Duration::from_millis(1200),
        samples: 20,
    };
    println!("table_generation");

    bench_with("base_grammar", opts.clone(), || {
        let g = base.grammar.extend().finish();
        g.tables().expect("LALR(1)")
    });

    for n in [1usize, 4, 16] {
        bench_with(&format!("base_plus_n_productions/{n}"), opts.clone(), || {
            let mut ext = base.grammar.extend();
            for i in 0..n {
                ext.add_production(
                    NodeKind::Statement,
                    &[
                        RhsItem::word(Box::leak(format!("kw{i}").into_boxed_str())),
                        RhsItem::Subtree(Delim::Paren, vec![RhsItem::Kind(NodeKind::Expression)]),
                        RhsItem::Lazy(Delim::Brace, NodeKind::BlockStmts),
                    ],
                    None,
                )
                .unwrap();
            }
            let g = ext.finish();
            g.tables().expect("LALR(1)")
        });
    }
}
