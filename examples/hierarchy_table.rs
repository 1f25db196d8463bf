//! Prints the hierarchy tables of the reproduction (experiments E3 & E4):
//!
//! 1. the strict chain of set-consensus powers between 2-consensus and
//!    registers;
//! 2. the `(N, K)-SC from (m, j)-SC` implementability grid ("Theorem 41");
//! 3. the deterministic grouped family per consensus level, with the task
//!    ceiling shared by every object of that level;
//! 4. streaming verdict-goal spot checks of the E1 consensus claims (the
//!    same `grouped_consensus_check` used by the experiment, which explores
//!    under `ExploreGoal::Verdict` and exits at the first refutation).
//!
//! Run with: `cargo run --example hierarchy_table`

use subconsensus::core::{
    grouped_consensus_check, grouped_task_bound, implementable, level_power, partition_bound,
    sc_chain, GroupedObject, ScPower,
};

fn main() {
    println!("── The sub-consensus chain (strictly decreasing powers) ──────────────");
    println!("   2-consensus = (2,1)-SC ≻ (3,2)-SC ≻ … ≻ registers\n");
    for link in sc_chain(10) {
        println!("   {link}");
    }

    println!("\n── Theorem-41 grid: can (N,K)-SC be built from (m,j)-SC + registers? ──");
    let sources = [(2usize, 1usize), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3)];
    print!("{:>10}", "(N,K) \\ src");
    for (m, j) in sources {
        print!("{:>9}", format!("({m},{j})"));
    }
    println!();
    for n in 2..=8usize {
        for k in 1..n {
            let target = ScPower::new(n, k);
            print!("{:>10}", format!("({n},{k})"));
            for (m, j) in sources {
                let source = ScPower::new(m, j);
                let yes = implementable(target, source);
                let bound = partition_bound(n, m, j);
                print!(
                    "{:>9}",
                    if yes {
                        "yes".to_string()
                    } else {
                        format!("no:{bound}")
                    }
                );
            }
            println!();
        }
    }
    println!("   (`no:b` = the source forces at least b distinct values on N processes)");

    println!("\n── The deterministic grouped family O_{{n,k}} ─────────────────────────");
    println!(
        "{:>8} {:>8} {:>10} {:>16} {:>22}",
        "n", "k", "capacity", "solves", "task ceiling @N=cap"
    );
    for n in 2..=4usize {
        for k in 0..=3usize {
            let o = GroupedObject::for_level(n, k);
            let p = level_power(n, k);
            println!(
                "{:>8} {:>8} {:>10} {:>16} {:>22}",
                n,
                k,
                o.capacity(),
                p.to_string(),
                format!("⌈{}/{}⌉ = {}", p.n, n, grouped_task_bound(n, p.n)),
            );
        }
    }
    println!(
        "\n   Every object of consensus number n has the same task ceiling ⌈N/n⌉ —\n   \
         the paper's O_{{n,k}} hierarchy therefore lives in the object-implementation\n   \
         relation (see EXPERIMENTS.md, E4), not in task solvability."
    );

    println!("\n── E1 verdict-goal spot checks (streaming valency, early exit) ───────");
    println!(
        "{:>7} {:>8} {:>8} {:>8} {:>10} {:>14} {:>10}",
        "", "n", "k", "procs", "consensus", "max distinct", "configs"
    );
    for (n, k) in [(2usize, 1usize), (3, 0)] {
        // `procs = n` proves the level solves n-consensus; `procs = n + 1`
        // refutes it and the streaming check stops at the first
        // disagreeing schedule instead of finishing the graph.
        for procs in [n, n + 1] {
            let c = grouped_consensus_check(n, k, procs).expect("model check");
            println!(
                "VERDICT {:>8} {:>8} {:>8} {:>10} {:>14} {:>10}",
                c.n,
                c.k,
                c.procs,
                if c.solves_consensus { "yes" } else { "no" },
                if c.solves_consensus {
                    c.max_distinct.to_string()
                } else {
                    format!("≥{}", c.max_distinct)
                },
                c.configs,
            );
        }
    }
    println!(
        "   (refuted rows exit early: no CSR freeze, and the configuration\n    \
         count stops at the level that decided the answer)"
    );
}
