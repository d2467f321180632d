//! `xclean serve` starts every corpus one way: a bare snapshot is the
//! one-entry catalog `default → snapshot`, a registered corpus is served
//! from its mapped file, and the tuning flags configure every corpus of
//! a catalog. These tests start the built binary on an ephemeral port,
//! read its banner, query it over HTTP and kill it.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Lines, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

use xclean::{Catalog, CorpusSpec};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xclean_cli_serve_start");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Builds a snapshot of a small corpus and a catalog that declares it as
/// its one corpus `default`, by absolute path. Each test names its own
/// files, since the tests of this binary run concurrently.
fn snapshot_and_catalog(test: &str) -> (String, String) {
    let xml = tmp(&format!("{test}.xml"));
    std::fs::write(
        &xml,
        "<db><rec><t>health insurance</t></rec><rec><t>program instance</t></rec>\
         <rec><t>health policy</t></rec></db>",
    )
    .unwrap();
    let snapshot = tmp(&format!("{test}.xci")).to_string_lossy().into_owned();
    let out = Command::new(env!("CARGO_BIN_EXE_xclean"))
        .args(["index", "build", &xml.to_string_lossy(), "--out", &snapshot])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let catalog = tmp(&format!("{test}.xcc")).to_string_lossy().into_owned();
    Catalog {
        corpora: vec![CorpusSpec {
            name: "default".into(),
            snapshot: snapshot.clone(),
        }],
    }
    .save(&catalog)
    .unwrap();
    (snapshot, catalog)
}

/// A running `xclean serve`, killed on drop.
struct Server {
    child: Child,
    /// Held open: the server exits on a write to a closed stdout.
    _stdout: Lines<BufReader<ChildStdout>>,
    banner: Vec<String>,
    addr: String,
}

impl Server {
    fn start(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xclean"))
            .arg("serve")
            .args(args)
            .args(["--port", "0", "--threads", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut banner = Vec::new();
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let addr = loop {
            let Some(Ok(line)) = lines.next() else {
                let status = child.wait().unwrap();
                panic!("serve {args:?} exited ({status}) before listening: {banner:?}");
            };
            if let Some(rest) = line.strip_prefix("xclean-server listening on http://") {
                break rest.split_whitespace().next().unwrap().to_string();
            }
            banner.push(line);
        };
        Server {
            child,
            _stdout: lines,
            banner,
            addr,
        }
    }

    /// The fingerprint the banner prints for `corpus`.
    fn fingerprint(&self, corpus: &str) -> String {
        let prefix = format!("corpus {corpus}: ");
        let line = self
            .banner
            .iter()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line: {:?}", self.banner));
        let at = line.find("fingerprint ").unwrap() + "fingerprint ".len();
        line[at..at + 16].to_string()
    }

    /// The body of `GET path`.
    fn get(&self, path: &str) -> String {
        let mut stream = TcpStream::connect(&self.addr).unwrap();
        let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{path}: {reply}");
        reply.split_once("\r\n\r\n").unwrap().1.to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

const QUERIES: [&str; 3] = ["helth+insurance", "progrm", "helth+polcy"];

#[test]
fn a_bare_snapshot_serves_as_a_one_entry_catalog() {
    let (snapshot, catalog) = snapshot_and_catalog("bare");
    let bare = Server::start(&[&snapshot]);
    let cataloged = Server::start(&["--catalog", &catalog]);
    assert_eq!(
        bare.fingerprint("default"),
        cataloged.fingerprint("default")
    );
    for line in [&bare.banner, &cataloged.banner] {
        assert!(line.iter().any(|l| l.contains("mmap-backed")), "{line:?}");
    }
    for q in QUERIES {
        let path = format!("/suggest?q={q}");
        let body = bare.get(&path);
        assert!(body.contains("\"suggestions\":[{"), "{q}: {body}");
        assert_eq!(body, cataloged.get(&path), "{q}");
        assert_eq!(
            body,
            cataloged.get(&format!("/suggest/default?q={q}")),
            "{q}"
        );
    }
}

#[test]
fn tuning_flags_configure_every_catalog_corpus() {
    let (_, catalog) = snapshot_and_catalog("tuned");
    let default = Server::start(&["--catalog", &catalog]);
    let tuned = Server::start(&["--catalog", &catalog, "--gamma", "5"]);
    assert_ne!(default.fingerprint("default"), tuned.fingerprint("default"));
}

/// A corpus registered with `index build --catalog` is served from its
/// mapped snapshot: the banner says so and times its open, validation
/// and engine build, each `/healthz` corpus row carries the checksum
/// `index inspect` prints for its own file (the top-level field the
/// first corpus's), and its answers are byte-equal to a positional
/// `serve` of the same file.
#[test]
fn a_registered_corpus_is_served_from_its_mapped_file() {
    let fixture =
        |name: &str| format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let snapshot = tmp("registered.xci").to_string_lossy().into_owned();
    let edge = tmp("registered_edge.xci").to_string_lossy().into_owned();
    let catalog = tmp("registered.xcc").to_string_lossy().into_owned();
    let _ = std::fs::remove_file(&catalog);
    let xclean = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_xclean"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let checksum = |name: &str, xml: &str, snapshot: &str| {
        xclean(&[
            "index",
            "build",
            &fixture(xml),
            "--out",
            snapshot,
            "--catalog",
            &catalog,
            "--name",
            name,
        ]);
        let inspect = xclean(&["index", "inspect", snapshot]);
        inspect
            .lines()
            .find_map(|l| l.strip_prefix("checksum"))
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no checksum line: {inspect}"))
            .to_string()
    };
    let checksums = [
        ("dblp", checksum("dblp", "dblp50.xml", &snapshot)),
        ("edge", checksum("edge", "edge.xml", &edge)),
    ];
    assert_ne!(checksums[0].1, checksums[1].1);

    let served = Server::start(&["--catalog", &catalog]);
    let bare = Server::start(&[&snapshot]);
    let mapped = format!("snapshot {snapshot}: v2 mmap-backed");
    assert!(
        served.banner.iter().any(|l| l.starts_with(&mapped)),
        "{mapped:?} not in {:?}",
        served.banner
    );
    for line in served.banner.iter().filter(|l| l.starts_with("snapshot ")) {
        let (_, times) = line.rsplit_once(" — ").unwrap();
        let fields: Vec<&str> = times
            .split(", ")
            .map(|f| f.split(' ').next().unwrap())
            .collect();
        assert_eq!(fields, ["open", "validate", "engine"], "{line}");
        assert!(times.ends_with("ms"), "{line}");
    }
    let health = xclean_telemetry::json::parse(&served.get("/healthz")).unwrap();
    assert_eq!(
        health["snapshot"]["checksum"].as_str(),
        Some(&*checksums[0].1)
    );
    let rows = health["corpora"].as_array().unwrap();
    assert_eq!(rows.len(), checksums.len());
    for (row, (name, checksum)) in rows.iter().zip(&checksums) {
        assert_eq!(row["name"].as_str(), Some(*name));
        assert_eq!(row["snapshot"]["format"].as_u64(), Some(2), "{name}");
        assert_eq!(
            row["snapshot"]["checksum"].as_str(),
            Some(&**checksum),
            "{name}"
        );
    }
    let body = served.get("/suggest/dblp?q=databse");
    assert!(body.contains("\"suggestions\":[{"), "{body}");
    assert_eq!(body, bare.get("/suggest?q=databse"));
}

/// `serve` whose stdout reader has gone drains quietly at SIGTERM: its
/// drain lines meet a closed pipe, and it still exits 0 without a panic.
/// `--trace-out` over a two-corpus catalog writes the primary corpus's
/// trace, which parses.
#[test]
fn serve_ends_quietly_once_its_stdout_reader_is_gone() {
    let (snapshot, _) = snapshot_and_catalog("sigterm");
    let catalog = tmp("sigterm-two.xcc").to_string_lossy().into_owned();
    let trace = tmp("sigterm-trace.json");
    let _ = std::fs::remove_file(&trace);
    Catalog {
        corpora: ["default", "other"]
            .map(|name| CorpusSpec {
                name: name.into(),
                snapshot: snapshot.clone(),
            })
            .to_vec(),
    }
    .save(&catalog)
    .unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_xclean"))
        .args(["serve", "--catalog", &catalog])
        .args(["--port", "0", "--threads", "1"])
        .args(["--trace-out", &trace.to_string_lossy()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut addr = None;
    for line in lines.by_ref() {
        let line = line.unwrap();
        if let Some(rest) = line.strip_prefix("xclean-server listening on http://") {
            addr = rest.split_whitespace().next().map(str::to_string);
        }
        if line.starts_with("slow-query log:") {
            break;
        }
    }
    let addr = addr.expect("a listening line");
    for path in ["/suggest?q=helth+insurance", "/suggest/other?q=progrm"] {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{path}: {reply}");
    }
    drop(lines);
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let trace = xclean_telemetry::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert!(
        !trace["traceEvents"].as_array().unwrap().is_empty(),
        "{trace:?}"
    );
}
