//! Expected simulated outputs of every job, recorded once by
//! `perfbench record` and built into the benchmark.
//!
//! One tab-separated line per job: key, cycles, retired instructions
//! per core (comma-separated), the hex digest of `result_to_json`, and
//! for probe jobs bits per trial and accuracy (`-` otherwise). A perf
//! change that moves any simulated output fails the benchmark.

use std::collections::HashMap;

use crate::jobs::Outputs;

/// The recorded outputs built into the binary.
pub const RECORDED: &str = include_str!("../expected/outputs.tsv");

/// Expected outputs by job key.
#[derive(Debug, Clone, Default)]
pub struct Golden {
    map: HashMap<String, Outputs>,
}

impl Golden {
    /// The outputs built into the binary.
    ///
    /// # Panics
    ///
    /// Panics if the built-in file is malformed.
    pub fn recorded() -> Golden {
        Golden::parse(RECORDED).expect("recorded outputs parse")
    }

    /// Parses the tab-separated format.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected outputs line {}: `{line}`", n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 6 {
                return Err(bad());
            }
            let retired = f[2]
                .split(',')
                .map(str::parse)
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|_| bad())?;
            let decode = match (f[4], f[5]) {
                ("-", "-") => None,
                (b, a) => Some((b.to_string(), a.to_string())),
            };
            let out = Outputs {
                cycles: f[1].parse().map_err(|_| bad())?,
                retired,
                digest: u64::from_str_radix(f[3], 16).map_err(|_| bad())?,
                decode,
            };
            map.insert(f[0].to_string(), out);
        }
        Ok(Golden { map })
    }

    /// Renders entries in key order.
    pub fn render(entries: &[(String, Outputs)]) -> String {
        let mut sorted: Vec<&(String, Outputs)> = entries.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut s = String::from(
            "# key\tcycles\tretired_per_core\tresult_digest\tbits_per_trial\taccuracy\n",
        );
        for (key, o) in sorted {
            let retired: Vec<String> = o.retired.iter().map(u64::to_string).collect();
            let (bits, acc) = o.decode.clone().unwrap_or_else(|| ("-".into(), "-".into()));
            s.push_str(&format!(
                "{key}\t{}\t{}\t{:016x}\t{bits}\t{acc}\n",
                o.cycles,
                retired.join(","),
                o.digest
            ));
        }
        s
    }

    /// Expected outputs of `key`.
    pub fn get(&self, key: &str) -> Option<&Outputs> {
        self.map.get(key)
    }

    /// Replaces the expected outputs of `key` (self-tests perturb one).
    pub fn set(&mut self, key: &str, out: Outputs) {
        self.map.insert(key.to_string(), out);
    }

    /// Number of recorded jobs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Checks `actual` against the record of `key`.
    ///
    /// # Errors
    ///
    /// Describes a missing record or the first differing output.
    pub fn check(&self, key: &str, actual: &Outputs) -> Result<(), String> {
        let want = self
            .get(key)
            .ok_or_else(|| format!("{key}: no expected outputs recorded"))?;
        if want == actual {
            return Ok(());
        }
        Err(format!(
            "{key}: outputs differ: expected cycles {} retired {:?} digest {:016x} decode {:?}, \
             got cycles {} retired {:?} digest {:016x} decode {:?}",
            want.cycles,
            want.retired,
            want.digest,
            want.decode,
            actual.cycles,
            actual.retired,
            actual.digest,
            actual.decode
        ))
    }
}
