//! `xclean` — command-line interface to the XClean suggestion engine.
//!
//! Run `xclean help` for usage.

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let out = xclean_cli::run(raw);
    // A failed command's lines (the `error: …` and any usage) go to
    // stderr, so a script reading stdout sees only results.
    for line in &out.lines {
        if out.code == 0 {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    }
    std::process::exit(out.code);
}
