//! Tiny-scale smoke runs of every workload, traced and untraced: each run
//! must pass its own correctness checks and print every metric that
//! `BENCHMARK.json` names for its mode, with the unit named there.
//!
//! Run with `cargo test --release` from this directory (debug builds work,
//! slowly).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the benchmark's last line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            _ => panic!("not an object when looking up {key:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {:?} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object key must be a string") };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k:?}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            _ => {
                for (word, v) in
                    [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
                {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
}

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark"))
}

/// Run one workload at tiny scale and return its closing JSON object.
fn run(workload: &str, trace: u8, sf: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_vcsql-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace"])
        .arg(trace.to_string())
        .args(["--sf", sf])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result = Json::parse(last);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
    assert_eq!(result.get("failed").num(), 0.0);
    assert!(result.get("attempted").num() >= 1.0);
    result
}

fn check_metrics(workload: &str, trace: u8, sf: &str) {
    let section = if trace == 0 { "end_to_end" } else { "per_layer" };
    let expected = manifest();
    let expected = expected.get(section).arr();
    let result = run(workload, trace, sf);
    let Json::Obj(metrics) = result.get("metrics") else { panic!("metrics must be an object") };
    for m in expected {
        let name = m.get("name").str();
        let got = metrics.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(got.get("unit").str(), m.get("unit").str(), "{workload}: unit of {name}");
        assert!(got.get("value").num().is_finite(), "{workload}: {name}");
    }
    assert_eq!(metrics.len(), expected.len(), "{workload}: metrics not named in {section}");
    if trace == 0 {
        for name in ["queries_per_s", "query_ms_p50", "query_ms_tail", "setup_s"] {
            assert!(metrics[name].get("value").num() > 0.0, "{workload}: {name}");
        }
    }
}

/// `tpcds` runs (its smoke test below) but is not a workload of record:
/// see the README's host-noise section.
#[test]
fn manifest_names_the_workloads_of_record() {
    let names: Vec<String> =
        manifest().get("workloads").arr().iter().map(|w| w.get("name").str().to_string()).collect();
    assert_eq!(names, ["tpch", "serve"]);
}

#[test]
fn tpch_smoke() {
    check_metrics("tpch", 0, "0.01");
    check_metrics("tpch", 1, "0.01");
}

#[test]
fn tpcds_smoke() {
    check_metrics("tpcds", 0, "0.01");
    check_metrics("tpcds", 1, "0.01");
}

#[test]
fn serve_smoke() {
    check_metrics("serve", 0, "0.005");
    check_metrics("serve", 1, "0.005");
}

#[test]
fn bad_arguments_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_vcsql-perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
