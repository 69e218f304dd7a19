//! **Figure 1** — `ℓ0` norm of modifications in the last FC layer vs
//! `R`, one series per `S` (MNIST-like victim).
//!
//! Paper's shape claims: `ℓ0` grows with `S` at fixed `R`; for small `S`
//! the count *shrinks* as `R` grows (a larger keep-set pins the model
//! closer to the original, so fewer parameters need to move).

use fsa_attack::ParamSelection;
use fsa_bench::exp::{experiment_config, run_mean};
use fsa_bench::report::print_table;
use fsa_bench::{row, Artifacts, Kind};

fn main() {
    let art = Artifacts::load_or_build(Kind::Digits);
    let sel = ParamSelection::last_layer(art.head());
    let cfg = experiment_config();
    let ss = [1usize, 2, 4, 8, 16];
    let rs = [50usize, 100, 200, 500, 1000];

    let mut rows = Vec::new();
    for &s in &ss {
        let mut cells = vec![format!("S={s}")];
        for &r in &rs {
            let m = run_mean(&art, &sel, s, r.max(s), 2, &cfg);
            cells.push(format!("{:.0}", m.l0));
        }
        rows.push(cells);
    }
    print_table(
        &format!(
            "Figure 1: l0 of last-FC-layer modifications vs R — {} ({})",
            art.kind.name(),
            art.kind.stands_for()
        ),
        &row!["", "R=50", "R=100", "R=200", "R=500", "R=1000"],
        &rows,
    );
    println!("\nShape checks: l0 grows down each column (S up).");
    println!("Reproduction finding: the paper's \"for small S the count shrinks as R grows\"");
    println!("does not hold: for small S the count grows with R up to R=500, and only the");
    println!("last step, to R=1000, shrinks (read the table above).");
}
