//! The reader of the committed `tests/golden_*.txt` files: `#` lines are
//! comments and every other line is one `key=value` field. Each
//! `golden_*` test renders its own fields and checks them with its own
//! tolerances.

use std::collections::HashMap;
use std::path::PathBuf;

/// The fields of one committed golden file.
pub struct Golden {
    fields: HashMap<String, String>,
}

/// With `GOLDEN_REGEN` set, writes `rendered` to `tests/<name>` and
/// returns `None`: the caller stops there, after an intentional
/// behaviour change. Otherwise parses the committed `tests/<name>`.
pub fn load(name: &str, rendered: &str) -> Option<Golden> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, rendered).expect("failed to write golden fixture");
        return None;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing tests/{name} — run with GOLDEN_REGEN=1 once"));
    let fields = committed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Some(Golden { fields })
}

impl Golden {
    /// The committed value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if the file has no such field.
    pub fn get(&self, key: &str) -> &str {
        self.fields
            .get(key)
            .unwrap_or_else(|| panic!("fixture is missing field {key}"))
    }
}
