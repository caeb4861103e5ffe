//! `BENCHMARK.json` at the repository root must describe exactly what the
//! command prints: the same workloads, and the same metrics with the same
//! units, in the charset the result format allows.

use loadbench::gen::Workload;
use loadbench::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// Just enough JSON for the manifest.
#[derive(Debug)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.at),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.at]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.at];
            self.at += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    out.push(self.s[self.at] as char);
                    self.at += 1;
                }
                _ => out.push(c as char),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        let v = self.value();
                        assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                if self.peek() != b']' {
                    loop {
                        v.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(v)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.at;
                while self.at < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.at]) {
                    self.at += 1;
                }
                let word = std::str::from_utf8(&self.s[start..self.at]).unwrap();
                // The manifest holds no `null`, `true` or `false`.
                Json::Num(
                    word.parse()
                        .unwrap_or_else(|_| panic!("bad literal {word}")),
                )
            }
        }
    }
}

fn manifest() -> BTreeMap<String, Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let Json::Obj(m) = p.value() else {
        panic!("BENCHMARK.json is not an object")
    };
    p.ws();
    assert_eq!(p.at, text.len(), "trailing bytes after the manifest");
    m
}

fn entries<'a>(m: &'a BTreeMap<String, Json>, key: &str) -> Vec<&'a BTreeMap<String, Json>> {
    let Some(Json::Arr(items)) = m.get(key) else {
        panic!("{key} is not a list")
    };
    items
        .iter()
        .map(|i| match i {
            Json::Obj(o) => o,
            other => panic!("{key} holds {other:?}"),
        })
        .collect()
}

fn str_of<'a>(o: &'a BTreeMap<String, Json>, key: &str) -> &'a str {
    match o.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: {other:?}"),
    }
}

fn keys(o: &BTreeMap<String, Json>) -> Vec<&str> {
    o.keys().map(String::as_str).collect()
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let Some(Json::Num(secs)) = m.get("run_seconds") else {
        panic!("run_seconds")
    };
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(secs));
    let Some(Json::Arr(paths)) = m.get("paths") else {
        panic!("paths")
    };
    assert!(matches!(&paths[..], [Json::Str(p)] if p == "loadbench"));
    let Some(Json::Arr(command)) = m.get("command") else {
        panic!("command")
    };
    let command: Vec<&str> = command
        .iter()
        .map(|c| match c {
            Json::Str(s) => s.as_str(),
            other => panic!("command holds {other:?}"),
        })
        .collect();
    assert!(command.contains(&"loadbench/Cargo.toml"));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
}

#[test]
fn manifest_names_exactly_the_workloads_the_command_runs() {
    let m = manifest();
    let named: Vec<&str> = entries(&m, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = str_of(w, "why");
            assert!(!why.contains('\n') && why.len() <= 200);
            str_of(w, "name")
        })
        .collect();
    let runs: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(named, runs);
    assert!(named.iter().all(|n| valid_name(n)));
}

#[test]
fn manifest_names_exactly_the_metrics_the_command_prints() {
    let m = manifest();
    let e2e: Vec<(&str, &str)> = entries(&m, "end_to_end")
        .iter()
        .map(|e| {
            assert_eq!(keys(e), ["better", "bound", "name", "unit"]);
            (str_of(e, "name"), str_of(e, "unit"))
        })
        .collect();
    assert_eq!(e2e, END_TO_END);
    let layers: Vec<(&str, &str)> = entries(&m, "per_layer")
        .iter()
        .map(|e| {
            assert_eq!(keys(e), ["better", "name", "unit"]);
            (str_of(e, "name"), str_of(e, "unit"))
        })
        .collect();
    assert_eq!(layers, PER_LAYER);
    for (name, unit) in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{unit}");
    }
}

#[test]
fn bounds_are_in_range_and_setup_has_the_largest() {
    let m = manifest();
    let bounds: Vec<(&str, f64)> = entries(&m, "end_to_end")
        .iter()
        .map(|e| match e.get("bound") {
            Some(Json::Num(b)) => (str_of(e, "name"), *b),
            other => panic!("bound: {other:?}"),
        })
        .collect();
    assert!(bounds.iter().all(|&(_, b)| b > 0.0 && b <= 0.25));
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s")
        .1;
    assert!(bounds.iter().all(|&(_, b)| b <= setup));
    for e in entries(&m, "end_to_end")
        .iter()
        .chain(&entries(&m, "per_layer"))
    {
        assert!(matches!(str_of(e, "better"), "higher" | "lower"));
    }
}
