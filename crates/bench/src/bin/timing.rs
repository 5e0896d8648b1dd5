//! Developer tool: wall-clock cost of one engine evaluation (plain vs
//! mercury/COPA+), and of building the process-wide MMSE curve table that
//! COPA+ reads.
use copa_channel::AntennaConfig;
use copa_core::{Engine, EvalRequest, ScenarioParams};
use copa_phy::mmse_curves::MmseCurve;
use copa_sim::standard_suite;
use std::time::Instant;

fn main() {
    let suite = standard_suite(AntennaConfig::CONSTRAINED_4X2);
    let t = Instant::now();
    let e = Engine::new(ScenarioParams::default());
    let _ = e.run(&mut EvalRequest::topology(&suite[0]));
    println!("plain eval: {:?}", t.elapsed());
    let t = Instant::now();
    std::hint::black_box(MmseCurve::all());
    println!("curve table built: {:?}", t.elapsed());
    let t = Instant::now();
    let e = Engine::new(ScenarioParams {
        include_mercury: true,
        ..Default::default()
    });
    println!("mercury engine built: {:?}", t.elapsed());
    let t = Instant::now();
    let _ = e.run(&mut EvalRequest::topology(&suite[0]));
    println!("mercury eval: {:?}", t.elapsed());
}
