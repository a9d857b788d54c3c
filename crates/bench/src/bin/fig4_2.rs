//! Regenerates **Figure 4.2**: the worked measure-language example — three
//! predicates applied to the printed global timeline, and the observation
//! function values of §4.3.2.
//!
//! ```text
//! cargo run -p loki-bench --release --bin fig4_2
//! ```

use loki_measure::fig42::{fig_4_2, predicate_1, predicate_2, predicate_3};
use loki_measure::obsfn::{ImpulseStep, ObservationFn, TrueFalse, UpDown};

fn main() {
    let (study, gt) = fig_4_2();
    let window = (0.0, 50.0e6);
    let timelines = [
        ("predicate 1", predicate_1()),
        ("predicate 2", predicate_2()),
        ("predicate 3", predicate_3()),
    ]
    .map(|(name, p)| (name, p.compile(&study).expect("compiles").eval(&gt, window)));

    println!("# Figure 4.2 — predicate value timelines over the example global timeline");
    for (name, tl) in &timelines {
        let spans: Vec<String> = tl
            .steps()
            .spans()
            .iter()
            .map(|(lo, hi)| format!("[{:.1}, {:.1}]", lo / 1e6, hi / 1e6))
            .collect();
        let impulses: Vec<String> = tl
            .impulses()
            .iter()
            .map(|t| format!("{:.1}", t / 1e6))
            .collect();
        println!(
            "{name}: steps(ms) {{{}}} impulses(ms) {{{}}}",
            spans.join(" "),
            impulses.join(" ")
        );
    }

    let count = ObservationFn::count(UpDown::Up, ImpulseStep::Both, 10.0, 35.0);
    let duration = ObservationFn::duration(TrueFalse::True, 2, 10.0, 40.0);
    let instant = ObservationFn::instant(UpDown::Up, ImpulseStep::Impulse, 2, 0.0, 50.0);

    println!();
    println!("# Observation function values (paper vs measured):");
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "function", "timeline1", "timeline2", "timeline3"
    );
    let row = |name: &str, f: &ObservationFn| {
        let vals: Vec<String> = timelines
            .iter()
            .map(|(_, tl)| format!("{:.1}", f.eval(tl, window)))
            .collect();
        println!(
            "{:<28} {:>10} {:>10} {:>10}",
            name, vals[0], vals[1], vals[2]
        );
    };
    row("count(U,B,10,35)", &count);
    row("duration(T,2,10,40) [ms]", &duration);
    row("instant(U,I,2,0,50) [ms]", &instant);
    println!();
    println!("# Paper values: count = 2, 2, 5");
    println!("#               duration = 1.4, 0, 7.0   (7.0 is 6.9 from the printed timeline)");
    println!("#               instant  = 0, 26.3, 21.2 (21.2 is 21.4 from the printed timeline)");
    println!("# The two discrepancies are explained in the doc of `loki_measure::fig42`.");
}
