//! Reproduce Figure 1: the arrival functions of a periodic stream and of
//! the paper's bursty hyperbolic stream (Eq. 27), printed as ASCII step
//! plots over the same window.
//!
//! Run with: `cargo run --example arrival_functions`

use bursty_rta::curves::Time;
use bursty_rta::model::ArrivalPattern;

fn plot(label: &str, pattern: &ArrivalPattern, window: Time, cols: usize) {
    let curve = pattern.arrival_curve(window);
    let max = curve.eval(window).max(1);
    println!(
        "{label}  ({} arrivals in [0, {window}])",
        curve.eval(window)
    );
    for row in (1..=max).rev() {
        let mut line = format!("{row:>3} |");
        for c in 0..cols {
            let t = Time(window.ticks() * c as i64 / cols as i64);
            line.push(if curve.eval(t) >= row { '#' } else { ' ' });
        }
        println!("{line}");
    }
    println!("    +{}", "-".repeat(cols));
    println!(
        "     0{:>width$}\n",
        format!("t={window}"),
        width = cols - 1
    );
}

fn main() {
    let tpu = 1000;
    let window = Time(12_000); // 12 model-time units

    // Periodic: one instance every 2 units (Eq. 25 with x = 0.5).
    let periodic = ArrivalPattern::Periodic {
        period: Time(2_000),
        offset: Time::ZERO,
    };
    plot("periodic, period = 2 units", &periodic, window, 60);

    // Bursty: Eq. 27 with the same long-run rate (x = 0.5) — the early
    // instances bunch up, then the stream settles to the same period.
    let bursty = ArrivalPattern::Hyperbolic {
        x: 0.5,
        ticks_per_unit: tpu,
    };
    plot("bursty (Eq. 27), x = 0.5", &bursty, window, 60);

    // A burst train, the classic bursty-sporadic shape.
    let train = ArrivalPattern::BurstTrain {
        burst_len: 3,
        intra_gap: Time(200),
        train_period: Time(4_000),
        offset: Time::ZERO,
    };
    plot("burst train, 3 per 4 units", &train, window, 60);

    // The bursty stream dominates the periodic one pointwise (it releases
    // every instance no later), which is exactly why it is harder to serve.
    let (cb, cp) = (bursty.arrival_curve(window), periodic.arrival_curve(window));
    for t in (0..=window.ticks()).step_by(250) {
        assert!(cb.eval(Time(t)) >= cp.eval(Time(t)));
    }
    println!("check: bursty arrival curve dominates the periodic one pointwise");
}
