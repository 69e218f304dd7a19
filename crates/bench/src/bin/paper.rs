//! The paper's tables and figures, printed from the declarations in
//! [`fsa_bench::exp`]: `paper [table ...]` prints the named tables, or
//! all of them in paper order, then this reproduction's `ablation` and
//! hardware `fault_plan`. An unknown name lists the valid ones and exits
//! with status 2 before anything runs. `cargo test --release -p
//! fsa-bench --test paper` asserts the claims under each table.

use fsa_bench::exp::{self, GridRuns, Metrics, FIG3_R, FIG3_S, SWEEP_R, SWEEP_S};
use fsa_bench::report::{pct, print_table};
use fsa_bench::Kind;

/// Every printable table by name, in paper order.
const TABLES: [(&str, fn()); 10] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig1", || l0_vs_r(Kind::Digits, 1)),
    ("fig2", || l0_vs_r(Kind::Objects, 2)),
    ("table4", table4),
    ("baseline_cmp", baseline_cmp),
    ("fig3", fig3),
    ("ablation", ablation),
    ("fault_plan", fault_plan),
];

fn main() {
    let names: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
    let mut chosen = Vec::new();
    for arg in std::env::args().skip(1) {
        let Some(i) = names.iter().position(|&name| name == arg) else {
            let valid = names.join(", ");
            eprintln!("paper: unknown table `{arg}`; valid names: {valid}");
            std::process::exit(2);
        };
        chosen.push(TABLES[i].1);
    }
    if chosen.is_empty() {
        chosen = TABLES.iter().map(|&(_, print)| print).collect();
    }
    chosen.into_iter().for_each(|print| print());
}

/// A row: `first`, then `cells`.
fn line(first: &str, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(first.to_string()).chain(cells).collect()
}

/// A header from `|`-separated labels.
fn labels(labels: &str) -> Vec<String> {
    labels.split('|').map(String::from).collect()
}

/// [`labels`], then one `S=s,R=r` per cell of `runs`.
fn header(first: &str, runs: &GridRuns) -> Vec<String> {
    let cells = runs.grid.cells.iter().map(|(s, r)| format!("S={s},R={r}"));
    labels(first).into_iter().chain(cells).collect()
}

/// One row per variant of `runs`: its label, then
/// `cell(variant, cell index, seed mean)` per cell.
fn rows(runs: &GridRuns, cell: impl Fn(usize, usize, Metrics) -> String) -> Vec<Vec<String>> {
    let g = &runs.grid;
    let row = |v| {
        let cells = g.cells.iter().enumerate();
        let cells = cells.map(|(c, &(s, r))| cell(v, c, runs.mean(v, s, r)));
        line(g.variants[v].label, cells)
    };
    (0..g.variants.len()).map(row).collect()
}

/// `"name (stands for)"` of a victim.
fn victim(kind: Kind) -> String {
    format!("{} ({})", kind.name(), kind.stands_for())
}

/// Table 1: `ℓ0` of modifications per FC layer (digits).
fn table1() {
    const PAPER: [[u32; 3]; 3] = [
        [14016, 40649, 120_597], // first FC layer
        [5390, 14086, 34069],    // second FC layer
        [222, 682, 1755],        // last FC layer
    ];
    let runs = exp::run_grid(&exp::table1());
    let mut rows = rows(&runs, |v, c, m| {
        format!("{:.0} (paper {})", m.l0, PAPER[v][c])
    });
    for (row, dim) in rows.iter_mut().zip(&runs.dims) {
        row.insert(1, dim.to_string());
    }
    print_table(
        "Table 1: l0 of modifications per FC layer (digits / MNIST)",
        &header("layer|params", &runs),
        &rows,
    );
    println!("\nShape checks: l0 grows with S=R; last layer needs the fewest modifications.");
}

/// Table 2: last-layer weights only vs biases only (digits).
fn table2() {
    const PAPER: [[&str; 4]; 2] = [
        ["236", "458", "715", "1644"],
        ["2", "4", "- (0%)", "- (0%)"],
    ];
    let runs = exp::run_grid(&exp::table2());
    let l0 = rows(&runs, |v, c, m| {
        format!("{:.0} (paper {})", m.l0, PAPER[v][c])
    });
    let success = rows(&runs, |_, _, m| pct(m.success_rate as f32));
    let mut table = Vec::new();
    for (mut l0, mut success) in l0.into_iter().zip(success) {
        l0[0] = format!("l0 ({})", l0[0]);
        success[0] = format!("success ({})", success[0]);
        table.extend([l0, success]);
    }
    print_table(
        "Table 2: weights-only vs bias-only modification of the last FC layer (digits / MNIST)",
        &header("metric", &runs),
        &table,
    );
    println!("\nShape checks: bias-only uses far fewer params but its success collapses as S");
    println!("grows with conflicting targets (the paper's SBA limitation); weights-only stays");
    println!("at 100%.");
}

/// Table 3: `ℓ0`- vs `ℓ2`-minimizing attacks (digits).
fn table3() {
    // Per column: (l0 attack: l0, l2), (l2 attack: l0, l2).
    const PAPER: [[(f32, f32); 2]; 3] = [
        [(1026.0, 863.0), (1431.0, 393.0)],
        [(1208.0, 804.0), (1432.0, 344.0)],
        [(1606.0, 498.0), (1964.0, 226.0)],
    ];
    let runs = exp::run_grid(&exp::table3());
    let rows = rows(&runs, |v, c, m| {
        let (p0, p2) = PAPER[c][v];
        format!("{:.0}/{:.2} (paper {p0:.0}/{p2:.0})", m.l0, m.l2)
    });
    print_table(
        "Table 3: l0/l2 norms of the l0- and l2-based attacks (digits / MNIST), cells = l0/l2",
        &header("attack", &runs),
        &rows,
    );
    println!("\nShape checks: per column, the l0 attack has the smaller l0 and the l2 attack");
    println!("the smaller l2. (Paper's absolute l2 values are on its GPU-trained victim; only");
    println!("the within-column ordering is expected to transfer.)");
}

/// Figures 1–2: last-layer `ℓ0` vs `R`, one row per `S` (the sweep's
/// seed mean).
fn l0_vs_r(kind: Kind, figure: u8) {
    let runs = exp::sweep_runs(kind);
    let l0 = |s| SWEEP_R.map(|r| format!("{:.0}", runs.mean(0, s, r).l0));
    let title = format!("Figure {figure}: l0 of last-FC-layer modifications vs R");
    print_table(
        &format!("{title} — {}", victim(kind)),
        &line("", SWEEP_R.map(|r| format!("R={r}"))),
        &SWEEP_S.map(|s| line(&format!("S={s}"), l0(s))),
    );
    println!("\nShape checks: l0 grows down each column (S up).");
    if kind == Kind::Objects {
        println!("The CIFAR-like victim (weaker model) needs fewer modifications per fault than");
        println!("digits at small S (S=1, 2) in every column.");
        return;
    }
    println!("Reproduction finding: the paper's \"for small S the count shrinks as R grows\"");
    println!("does not hold: for small S the count grows with R up to R=500, and only the");
    println!("last step, to R=1000, shrinks (read the table above).");
}

/// Table 4: test accuracy after the attack, rows `R`, columns `S` (the
/// sweep's seed-42 draws), both victims.
fn table4() {
    const PAPER_MNIST: [[f32; 5]; 5] = [
        [85.2, 73.1, 64.7, 37.4, 29.7],
        [96.9, 86.6, 81.3, 76.1, 65.2],
        [96.7, 96.1, 95.4, 93.2, 92.6],
        [98.6, 98.5, 97.8, 96.9, 95.9],
        [98.7, 97.9, 98.1, 96.8, 96.9],
    ];
    const PAPER_CIFAR: [[f32; 5]; 5] = [
        [57.7, 52.9, 44.9, 26.2, 18.3],
        [67.5, 68.7, 55.8, 42.5, 31.5],
        [72.3, 67.6, 69.6, 57.2, 35.4],
        [78.5, 77.4, 76.2, 74.5, 73.2],
        [78.5, 78.2, 77.5, 77.9, 76.4],
    ];
    for (kind, published) in [(Kind::Digits, PAPER_MNIST), (Kind::Objects, PAPER_CIFAR)] {
        let runs = exp::sweep_runs(kind);
        let row = |(&r, paper): (&usize, &[f32; 5])| {
            let acc = |(&s, p)| {
                let m = runs.run(0, s, r, 0);
                format!("{} (paper {p:.1}%)", pct(m.test_accuracy as f32))
            };
            line(&format!("R={r}"), SWEEP_S.iter().zip(paper).map(acc))
        };
        let title = "Table 4: test accuracy after attack";
        let clean = 100.0 * exp::victim(kind).baseline_accuracy;
        print_table(
            &format!("{title} — {}, original model {clean:.1}%", victim(kind)),
            &line("", SWEEP_S.map(|s| format!("S={s}"))),
            &SWEEP_R.iter().zip(&published).map(row).collect::<Vec<_>>(),
        );
    }
    println!("\nShape checks: accuracy decreases along each row (S up); each column ends higher");
    println!("at R=1000 than at R=50; small-R/large-S collapses; S=1,R=1000 stays within ~1");
    println!("point of the original model.");
    println!("Reproduction finding: the paper's \"accuracy increases down each column (R up)\"");
    println!("does not hold step by step: some columns dip between neighbouring R (S=1 and");
    println!("S=2 on digits, S=1 on objects; read the tables above). The iteration cap causes");
    println!("the digits S=1 dip: at 2400 iterations R=100 reads 98.45% and R=200 98.80%.");
}

/// §5.4: one fault's accuracy cost under the fault sneaking attack and
/// the two baselines, both victims.
fn baseline_cmp() {
    for kind in [Kind::Digits, Kind::Objects] {
        let base = exp::victim(kind).baseline_accuracy;
        let rows = exp::baseline_cmp(kind).map(|a| {
            let success = pct(if a.success { 1.0 } else { 0.0 });
            let drop = format!("{:.2}pp", 100.0 * (base - a.test_accuracy));
            line(
                a.label,
                [success, a.l0.to_string(), pct(a.test_accuracy), drop],
            )
        });
        let title = "§5.4: S=1 accuracy degradation vs baselines";
        print_table(
            &format!("{title} — {}, original {:.2}%", victim(kind), 100.0 * base),
            &labels("attack|fault success|l0|test acc|acc drop"),
            &rows,
        );
    }
    println!("\nShape checks: all three attacks inject the fault; the fault sneaking attack's");
    println!("accuracy drop is the smallest (paper: 0.8pp/1.0pp vs 3.86pp/2.35pp for [16]).");
}

/// Figure 3 and §5.5: fault success rate and successful-fault count vs
/// `S`, both victims.
fn fig3() {
    for kind in [Kind::Digits, Kind::Objects] {
        let runs = exp::run_grid(&exp::fig3(kind));
        let mut rows = Vec::new();
        for r in FIG3_R {
            let means = FIG3_S.map(|s| runs.mean(0, s, r));
            let rate = means.map(|m| pct(m.success_rate as f32));
            rows.push(line(&format!("success rate (R={r})"), rate));
            let count = means.map(|m| format!("{:.1}", m.s_success));
            rows.push(line(&format!("successful faults (R={r})"), count));
        }
        print_table(
            &format!("Figure 3 / §5.5: fault success vs S — {}", victim(kind)),
            &line("", FIG3_S.map(|s| format!("S={s}"))),
            &rows,
        );
    }
    println!("\nShape checks: ~100% success at small S in every series; at R=1000 success");
    println!("falls below 100% as S grows.");
    println!("Reproduction findings: the paper's saturating successful-fault count (≈10, the");
    println!("victim's tolerance for sneaking faults) does not hold: the count keeps growing");
    println!("with S in every series, and at R=200 no knee is in range. The R=1000 decline,");
    println!("non-monotonic on objects, is the 600-iteration cap's: with 2400 iterations S=8");
    println!("lands all 16 faults on both victims, and with 9600 S=24 lands all 48.");
}

/// The ablation: κ, refinement, ρ and the iteration cap, each varied.
fn ablation() {
    let runs = exp::run_grid(&exp::ablation());
    let (s, r) = runs.grid.cells[0];
    let row = |(v, variant): (usize, &exp::Variant)| {
        let m = runs.mean(v, s, r);
        let norms = [format!("{:.0}", m.l0), format!("{:.2}", m.l2)];
        let rates = [m.success_rate, m.unchanged_rate, m.test_accuracy].map(|x| pct(x as f32));
        line(variant.label, norms.into_iter().chain(rates))
    };
    let seeds = runs.grid.seeds;
    print_table(
        &format!("Ablation at S={s}, R={r} (digits victim, last FC layer, {seeds} seeds)"),
        &labels("variant|l0|l2|fault success|keep rate|test acc"),
        &runs
            .grid
            .variants
            .iter()
            .enumerate()
            .map(row)
            .collect::<Vec<_>>(),
    );
    println!("\nReading: κ=1 + refinement buy fault success at slightly higher l0; the paper's");
    println!("κ=0 hinge alone leaves marginal faults vulnerable to the z-step's rounding.");
    println!("Reproduction finding: ρ moves l0 (ρ=1, 5, 25 read 744, 985, 1137) but does not");
    println!("trade it against success: every ρ lands 100% of its faults.");
}

/// The hardware extension: the `ℓ0` and `ℓ2` attacks' δ as bit-flip
/// plans, costed under the laser and rowhammer injectors.
fn fault_plan() {
    let rows = exp::fault_plans().map(|p| {
        let cells = [
            p.plan.words().to_string(),
            p.plan.total_bit_flips.to_string(),
            p.rows.to_string(),
            format!("{:.0}s", p.laser.seconds),
            pct(p.hammer.achievement_rate() as f32),
            format!("{:.1}M", p.hammer.activations as f64 / 1e6),
            format!("{}/1", p.rh_hits),
        ];
        line(&format!("{:?} attack", p.norm), cells)
    });
    let columns = "words|bit flips|DRAM rows|laser time|RH flips achieved|RH activations|RH fault";
    print_table(
        "Hardware fault plans for the same S=1,R=10 fault (digits victim, last FC layer)",
        &labels(&format!("attack|{columns}")),
        &rows,
    );
    println!("\nShape checks: the l0-minimized δ touches fewer words, so its laser realization");
    println!("is cheaper; rowhammer achieves only a fraction of requested flips for either plan");
    println!("(vulnerable-cell + direction constraints). Both plans fit in one DRAM row, so");
    println!("the row count does not separate them.");
}
