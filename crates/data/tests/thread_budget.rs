//! Context extraction sizes its split from the workspace thread budget,
//! so `GENDT_THREADS` holds from the first extraction on, before any
//! forward pass has settled the budget. One test in its own process: it
//! sets the environment and reads process-global thread state.

use gendt_data::{extract, ContextCfg, RunContext};
use gendt_geo::coords::XY;
use gendt_geo::trajectory::{generate, Scenario, TrajectoryCfg};
use gendt_geo::{World, WorldCfg};
use gendt_radio::cells::Deployment;

/// One step's cells (id, features) and environment row, floats as bits.
type StepBits = (Vec<(u32, Vec<u32>)>, Vec<u32>);

fn bits(ctx: &RunContext) -> Vec<StepBits> {
    (0..ctx.len())
        .map(|i| {
            let cells = ctx
                .cells(i)
                .iter()
                .map(|(id, f)| (id, f.iter().map(|v| v.to_bits()).collect()))
                .collect();
            (cells, ctx.env(i).iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

#[test]
fn extraction_settles_the_thread_budget_first() {
    std::env::set_var("GENDT_THREADS", "1");
    let world = World::generate(WorldCfg::city(7));
    let deployment = Deployment::from_world(&world);
    let walk = generate(
        &world,
        &TrajectoryCfg::new(Scenario::Walk, 3600.0, XY::new(300.0, -200.0), 9),
    );
    assert!(walk.points.len() >= 2048, "{} points", walk.points.len());
    let cfg = ContextCfg {
        max_cells: 8,
        ..ContextCfg::default()
    };
    let one = extract(&world, &deployment, &walk, &cfg);
    assert_eq!(rayon::current_num_threads(), 1, "GENDT_THREADS=1 installed");
    gendt_nn::set_num_threads(2);
    let two = extract(&world, &deployment, &walk, &cfg);
    assert_eq!(
        bits(&one),
        bits(&two),
        "the same context at 1 and 2 threads"
    );
}
