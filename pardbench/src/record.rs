//! Result records: the machine fingerprint, a minimal JSON writer, and
//! the files written next to each run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// A JSON value, just enough for the records.
#[derive(Clone, Debug)]
pub enum Json {
    Num(f64),
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => push_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// What a measurement depends on besides the code under test. Runs
/// compare only when every field but `source` and `git_commit` agrees.
pub fn fingerprint(root: &Path) -> BTreeMap<&'static str, String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    BTreeMap::from([
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("rustc", command("rustc", &["--version"])),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("git_commit", command("git", &["rev-parse", "HEAD"])),
        ("source", format!("{:016x}", source_digest(root))),
    ])
}

/// FNV-1a over the program's sources (paths and contents, in sorted
/// order): identifies the code under test where no git metadata is.
pub fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "shims", "src"] {
        walk(&root.join(top), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(|f| root.join(f)));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        eat(file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(&file).unwrap_or_default());
    }
    hash
}

/// Writes `text` to `path`, creating parent directories.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The pinned outcome hash of `workload` in `expected_outcomes.json`
/// (a flat JSON object of workload name to hex hash).
pub fn pinned_hash(text: &str, workload: &str) -> Option<u64> {
    let key = format!("\"{workload}\"");
    let rest = &text[text.find(&key)? + key.len()..];
    let value = rest
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    u64::from_str_radix(&value[..value.find('"')?], 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_nests() {
        let v = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::str("q\"\n")),
            ("c", Json::Arr(vec![Json::Bool(true), Json::Num(f64::NAN)])),
        ]);
        assert_eq!(v.render(), r#"{"a":1.5,"b":"q\"\n","c":[true,null]}"#);
    }

    #[test]
    fn pinned_hashes_parse() {
        let text = "{\n  \"closed-tm-sim\": \"00ff\",\n  \"tweet-replay-sim\":\"a1\"\n}\n";
        assert_eq!(pinned_hash(text, "closed-tm-sim"), Some(0xff));
        assert_eq!(pinned_hash(text, "tweet-replay-sim"), Some(0xa1));
        assert_eq!(pinned_hash(text, "burst-da-live"), None);
    }
}
