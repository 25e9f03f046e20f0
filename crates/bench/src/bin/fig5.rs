//! Regenerates the paper's Figure 5: iterative lower-bound improvement
//! (panel a) and bound-vector growth (panel b) on the EMN model, for
//! the Random and Average bootstrap variants.
//!
//! Usage:
//! `cargo run -p bpr-bench --bin fig5 --release -- [--iterations 20] [--seed 7] [--csv fig5.csv]`

use bpr_bench::experiments::{fig5, fig5_csv};
use bpr_bench::flag;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iterations = flag(&args, "--iterations", 20usize);
    let seed = flag(&args, "--seed", 7u64);
    let csv_path = flag(&args, "--csv", String::new());

    let series = match fig5(iterations, seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fig5 experiment failed: {e}");
            std::process::exit(1);
        }
    };

    println!("# Figure 5(a): upper bound on cost (-V at uniform belief) per iteration");
    println!("# Figure 5(b): number of bound vectors per iteration");
    println!(
        "{:<10} {:>22} {:>18} {:>22} {:>18}",
        "iteration", "random-cost-bound", "random-vectors", "average-cost-bound", "average-vectors"
    );
    let (random, average) = (&series[0].records, &series[1].records);
    for i in 0..iterations.max(1) {
        let r = random.get(i);
        let a = average.get(i);
        println!(
            "{:<10} {:>22.2} {:>18} {:>22.2} {:>18}",
            i + 1,
            r.map_or(f64::NAN, |x| -x.bound_at_uniform),
            r.map_or(0, |x| x.n_vectors),
            a.map_or(f64::NAN, |x| -x.bound_at_uniform),
            a.map_or(0, |x| x.n_vectors),
        );
    }
    if let (Some(rf), Some(rl)) = (random.first(), random.last()) {
        println!(
            "# random:  bound improved {:.2} -> {:.2} (cost), vectors {} -> {}",
            -rf.bound_at_uniform, -rl.bound_at_uniform, rf.n_vectors, rl.n_vectors
        );
    }
    if let (Some(af), Some(al)) = (average.first(), average.last()) {
        println!(
            "# average: bound improved {:.2} -> {:.2} (cost), vectors {} -> {}",
            -af.bound_at_uniform, -al.bound_at_uniform, af.n_vectors, al.n_vectors
        );
    }
    if !csv_path.is_empty() {
        if let Err(e) = std::fs::write(&csv_path, fig5_csv(&series)) {
            eprintln!("failed to write {csv_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {csv_path}");
    }
}
