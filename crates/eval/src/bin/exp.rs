//! `exp <name>` runs one experiment and prints its report; the JSON copy
//! goes to `target/experiments/`. `exp` alone lists every name, one per
//! line, and exits non-zero. `XCLEAN_SCALE` (default 1) scales the
//! corpora. Run with `--release`: several experiments time queries.

use std::process::ExitCode;

use xclean_eval::datasets::parse_scale;
use xclean_eval::report::write_json;
use xclean_eval::Experiment;

fn main() -> ExitCode {
    let name = std::env::args().nth(1);
    let Some(experiment) = Experiment::ALL
        .into_iter()
        .find(|e| Some(e.name()) == name.as_deref())
    else {
        for e in Experiment::ALL {
            println!("{}", e.name());
        }
        return ExitCode::FAILURE;
    };
    let scale = std::env::var("XCLEAN_SCALE").map_or(1.0, |s| parse_scale(&s));
    let report = experiment.run(scale);
    print!("{}", report.render());
    if let Some(stem) = report.json_stem() {
        let path = write_json(stem, &report.to_json()).expect("write json");
        println!("json: {}", path.display());
    }
    ExitCode::SUCCESS
}
