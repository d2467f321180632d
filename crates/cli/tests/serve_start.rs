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
/// mapped snapshot: the banner says so, `/healthz` carries the checksum
/// `index inspect` prints for the file, and its answers are byte-equal
/// to a positional `serve` of the same file.
#[test]
fn a_registered_corpus_is_served_from_its_mapped_file() {
    let xml = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/dblp50.xml"
    );
    let snapshot = tmp("registered.xci").to_string_lossy().into_owned();
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
    xclean(&[
        "index",
        "build",
        xml,
        "--out",
        &snapshot,
        "--catalog",
        &catalog,
        "--name",
        "dblp",
    ]);
    let inspect = xclean(&["index", "inspect", &snapshot]);
    let checksum = inspect
        .lines()
        .find_map(|l| l.strip_prefix("checksum"))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no checksum line: {inspect}"))
        .to_string();

    let served = Server::start(&["--catalog", &catalog]);
    let bare = Server::start(&[&snapshot]);
    let mapped = format!("snapshot {snapshot}: v2 mmap-backed");
    assert!(
        served.banner.iter().any(|l| l.starts_with(&mapped)),
        "{mapped:?} not in {:?}",
        served.banner
    );
    let health = xclean_telemetry::json::parse(&served.get("/healthz")).unwrap();
    assert_eq!(health["snapshot"]["checksum"].as_str(), Some(&*checksum));
    let body = served.get("/suggest/dblp?q=databse");
    assert!(body.contains("\"suggestions\":[{"), "{body}");
    assert_eq!(body, bare.get("/suggest?q=databse"));
}
