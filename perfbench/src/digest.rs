//! Golden output digests: FNV-1a over the bytes of each export, and
//! the checked-in table (`perfbench/digests.json`) of the digests every
//! workload produced at a fixed set of seeds. Reports are pure
//! functions of the spec, so a digest that moves means behaviour moved.

use std::path::{Path, PathBuf};

use serde_json::Value;

/// Seeds the table records for every workload, beside each spec's own.
pub const RECORDED_SEEDS: std::ops::RangeInclusive<u64> = 0..=12;

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// `(export name, digest)` pairs of one iteration.
pub type Digests = Vec<(String, String)>;

/// The recorded digests: workload → seed → export name → digest.
pub struct Table {
    doc: Value,
}

impl Table {
    pub fn path(root: &Path) -> PathBuf {
        root.join("perfbench/digests.json")
    }

    pub fn load(root: &Path) -> Result<Self, String> {
        let path = Self::path(root);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        Ok(Self { doc })
    }

    /// Checks `digests` against the recorded ones for `(workload, seed)`.
    /// Seeds the table does not hold are not checked.
    pub fn check(&self, workload: &str, seed: u64, digests: &Digests) -> Vec<String> {
        let recorded = self.doc.get_field(workload).get_field(&seed.to_string());
        if !matches!(recorded, Value::Object(_)) {
            return Vec::new();
        }
        let mut errors = Vec::new();
        for (name, got) in digests {
            if let Some(want) = recorded.get_field(name).as_str() {
                if want != got {
                    errors.push(format!(
                        "{workload} seed {seed}: {name} digest {got} != recorded {want}"
                    ));
                }
            }
        }
        errors
    }

    /// Builds a table from `(workload, seed, digests)` rows.
    pub fn from_rows(rows: &[(String, u64, Digests)]) -> Value {
        let mut workloads: Vec<(String, Value)> = Vec::new();
        for (w, seed, digests) in rows {
            let entry = Value::Object(
                digests
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            );
            let seeds = match workloads.iter_mut().find(|(k, _)| k == w) {
                Some((_, v)) => v,
                None => {
                    workloads.push((w.clone(), Value::Object(Vec::new())));
                    &mut workloads.last_mut().expect("just pushed").1
                }
            };
            if let Value::Object(fields) = seeds {
                fields.push((seed.to_string(), entry));
            }
        }
        Value::Object(workloads)
    }
}
