//! **Figure 3 + §5.5** — fault sneaking success rate of the `S`
//! designated faults vs `S`, and the absolute number of successfully
//! injected faults (the model's *tolerance for sneaking faults*).
//!
//! Paper's shape claims: success ≈100% below a model-dependent knee
//! (≈10 for their victims), declining beyond it; the successful-fault
//! *count* saturates near the knee regardless of how large `S` gets.

use fsa_attack::ParamSelection;
use fsa_bench::exp::{experiment_config, run_mean};
use fsa_bench::report::{pct, print_table};
use fsa_bench::{Artifacts, Kind};

fn main() {
    let ss = [1usize, 2, 4, 6, 8, 10, 12, 16, 20, 24];
    let rs = [200usize, 1000];
    for kind in [Kind::Digits, Kind::Objects] {
        let art = Artifacts::load_or_build(kind);
        let sel = ParamSelection::last_layer(art.head());
        let cfg = experiment_config();
        let mut rows = Vec::new();
        for &r in &rs {
            let mut rate_cells = vec![format!("success rate (R={r})")];
            let mut count_cells = vec![format!("successful faults (R={r})")];
            for &s in &ss {
                let m = run_mean(&art, &sel, s, r, 2, &cfg);
                rate_cells.push(pct(m.success_rate as f32));
                count_cells.push(format!("{:.1}", m.s_success));
            }
            rows.push(rate_cells);
            rows.push(count_cells);
        }
        let header: Vec<String> = std::iter::once("".to_string())
            .chain(ss.iter().map(|s| format!("S={s}")))
            .collect();
        print_table(
            &format!(
                "Figure 3 / §5.5: fault success vs S — {} ({})",
                art.kind.name(),
                art.kind.stands_for()
            ),
            &header,
            &rows,
        );
    }
    println!("\nShape checks: ~100% success at small S in every series; at R=1000 success");
    println!("falls below 100% as S grows.");
    println!("Reproduction findings: the paper's saturating successful-fault count (≈10, the");
    println!("victim's tolerance for sneaking faults) does not hold: the count keeps growing");
    println!("with S in every series. At R=200 no knee is in range, and the objects series at");
    println!("R=1000 declines non-monotonically (read the tables above).");
}
