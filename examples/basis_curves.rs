//! Reproduce the paper's Fig. 2a: the four piecewise-cubic B-spline
//! basis functions contributing on one grid interval, as CSV.
//!
//! Run: `cargo run --release --example basis_curves > fig2a.csv`

use einspline::basis::{basis_function, weights};

fn main() {
    println!("t,b0,b1,b2,b3,sum,basis(-1-t)");
    for i in 0..=100 {
        let t = i as f64 / 100.0;
        let w = weights(t);
        let sum: f64 = w.iter().sum();
        println!(
            "{t:.2},{:.6},{:.6},{:.6},{:.6},{sum:.6},{:.6}",
            w[0],
            w[1],
            w[2],
            w[3],
            basis_function(t + 1.0) // the b0 curve via the cardinal form
        );
    }
    eprintln!("(partition of unity: 'sum' column is identically 1)");
}
