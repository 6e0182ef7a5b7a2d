//! Prints every reproduced table/figure of the paper, the design-choice
//! ablations included; `--json` prints them as one JSON array instead.
//!
//! ```text
//! cargo run --release -p dlb-workflows --bin figures [-- --json]
//! ```

use dlb_workflows::calibration::Calibration;
use dlb_workflows::figures::all_figures;

fn main() {
    let json_only = std::env::args().any(|a| a == "--json");
    let cal = Calibration::paper();
    eprintln!("regenerating all figures on the paper calibration…");
    let reports = all_figures(&cal);
    if json_only {
        let bundle = dlb_telemetry::Json::Array(reports.iter().map(|r| r.to_json()).collect());
        println!("{}", bundle.to_string_pretty());
    } else {
        for r in &reports {
            println!();
            println!("{}", r.render());
        }
    }
}
