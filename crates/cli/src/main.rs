//! `xclean` — command-line interface to the XClean suggestion engine.
//!
//! Run `xclean help` for usage.

use std::io::{ErrorKind, Write};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let out = xclean_cli::run(raw);
    // A failed command's lines (the `error: …` and any usage) go to
    // stderr, so a script reading stdout sees only results.
    let written = if out.code == 0 {
        write_lines(std::io::stdout().lock(), &out.lines)
    } else {
        write_lines(std::io::stderr().lock(), &out.lines)
    };
    // A reader that has gone away (`xclean help | head -1`) ends the
    // output quietly, under the command's own exit code.
    let code = match written {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            let _ = writeln!(std::io::stderr(), "error: writing the output: {e}");
            out.code.max(2)
        }
        _ => out.code,
    };
    std::process::exit(code);
}

fn write_lines(mut to: impl Write, lines: &[String]) -> std::io::Result<()> {
    for line in lines {
        writeln!(to, "{line}")?;
    }
    to.flush()
}
