//! Append-only benchmark history with trend summaries.
//!
//! The two checked-in baselines at the workspace root — `BENCH_explorer.json` and
//! `BENCH_treenet.json` — used to be single snapshot objects that each bench run
//! overwrote, so a regression was only visible if someone diffed the overwrite.  This
//! module turns them into *histories*: version-2 documents holding an array of dated
//! entries (capped at [`MAX_ENTRIES`], oldest dropped first) plus a `trend` block
//! summarizing the last [`TREND_WINDOW`] entries per tracked metric (`n`, `last`,
//! `median`, `last_vs_median`).  A legacy single-object file loads as a one-entry
//! history, so conversion is automatic on the first append.
//!
//! The `perf_smoke` CI gate reads the same history: instead of a fixed 1.0× floor it
//! gates the live delta-vs-interned ratio against half the *median historical* speedup
//! (never below 1.0), so a slow erosion across runs trips the gate even when each
//! individual step stays above 1.0.
//!
//! Documents are written with `serde_json::to_string_pretty` (stable 2-space-indented JSON,
//! objects in key order), so loading and saving a history without a new entry reproduces
//! the file byte for byte.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Maximum entries a history retains; appending beyond it drops the oldest.
pub const MAX_ENTRIES: usize = 24;

/// Entries the `trend` block (and the `perf_smoke` gate) summarize.
pub const TREND_WINDOW: usize = 8;

/// An append-only, capped history of dated benchmark entries.
#[derive(Clone, Debug)]
pub struct History {
    /// The bench this history tracks (`"exhaustive_checker"`, `"treenet_engine"`).
    pub bench: String,
    /// The entries, oldest first.  Each is a JSON object; dated entries carry
    /// `recorded_unix` / `recorded` (added by [`History::append_dated`]).
    pub entries: Vec<Value>,
}

impl History {
    /// An empty history for `bench`.
    pub fn new(bench: &str) -> History {
        History { bench: bench.to_string(), entries: Vec::new() }
    }

    /// Loads the history stored at `path`.  A missing file yields an empty history; a
    /// legacy single-object snapshot (no `version`) becomes its sole entry; a version-2
    /// document loads its `entries` array.
    ///
    /// A file that exists but does not parse — truncated by a killed bench run, corrupted
    /// by a bad merge — degrades to a **fresh history with a warning** instead of an
    /// error: losing the trend window must never block the bench that would rebuild it
    /// (the next [`History::save`] overwrites the corrupt file).  Only I/O failures other
    /// than not-found are surfaced as `Err`.
    pub fn load(path: &Path, bench: &str) -> Result<History, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                return Ok(History::new(bench))
            }
            Err(err) => return Err(format!("unreadable {}: {err}", path.display())),
        };
        let fresh = |detail: String| {
            eprintln!("warning: discarding bench history {}: {detail}", path.display());
            Ok(History::new(bench))
        };
        let doc = match serde_json::from_str(&text) {
            Ok(doc) => doc,
            Err(err) => return fresh(format!("unparsable ({err})")),
        };
        let mut history = History::new(bench);
        match doc.get("version").and_then(Value::as_u64) {
            Some(2) => {
                let Some(Value::Array(entries)) = doc.get("entries") else {
                    return fresh("version 2 without an `entries` array".to_string());
                };
                history.entries = entries.clone();
            }
            // A pre-history snapshot: the whole object is the first entry.
            None => history.entries.push(doc),
            Some(v) => return fresh(format!("unknown history version {v}")),
        }
        Ok(history)
    }

    /// Appends `entry`, dropping the oldest entries beyond [`MAX_ENTRIES`].
    pub fn append(&mut self, entry: Value) {
        self.entries.push(entry);
        if self.entries.len() > MAX_ENTRIES {
            let excess = self.entries.len() - MAX_ENTRIES;
            self.entries.drain(..excess);
        }
    }

    /// [`History::append`] after stamping the entry with `recorded_unix` (seconds) and a
    /// `recorded` `YYYY-MM-DD` date derived from it.
    pub fn append_dated(&mut self, entry: Value, recorded_unix: u64) {
        let mut entry = entry;
        if let Value::Object(map) = &mut entry {
            map.insert("recorded_unix".to_string(), Value::Integer(recorded_unix as i128));
            map.insert("recorded".to_string(), Value::String(utc_date(recorded_unix)));
        }
        self.append(entry);
    }

    /// The values of (dotted-path) `key` over the last [`TREND_WINDOW`] entries, oldest
    /// first; entries missing the key — or carrying a non-finite value (a NaN/Infinity that
    /// an earlier writer rendered as `null`, or that a corrupt entry smuggled in) — are
    /// skipped, so medians and ratios are always computed over real data.
    pub fn recent(&self, key: &str) -> Vec<f64> {
        let start = self.entries.len().saturating_sub(TREND_WINDOW);
        self.entries[start..]
            .iter()
            .filter_map(|entry| lookup(entry, key))
            .filter(|v| v.is_finite())
            .collect()
    }

    /// Median of `key` over the last [`TREND_WINDOW`] entries; `None` when no entry has it.
    pub fn recent_median(&self, key: &str) -> Option<f64> {
        median(self.recent(key))
    }

    /// The `trend` block: per tracked key, how many recent entries carried it, the latest
    /// value, the window median, and their ratio.
    pub fn trend(&self, keys: &[&str]) -> Value {
        let mut out = BTreeMap::new();
        for &key in keys {
            let values = self.recent(key);
            let Some(med) = median(values.clone()) else { continue };
            let last = *values.last().expect("median implies non-empty");
            let mut row = BTreeMap::new();
            row.insert("n".to_string(), Value::Integer(values.len() as i128));
            row.insert("last".to_string(), Value::Number(last));
            row.insert("median".to_string(), Value::Number(med));
            // Guarded ratio: a zero median (an all-zero metric window) or any non-finite
            // intermediate degrades to 0.0 — "no trend" — instead of writing NaN/Infinity
            // into the document.  (`med != 0.0` alone is not enough: NaN passes it.)
            let ratio = last / med;
            let ratio = if med != 0.0 && ratio.is_finite() { ratio } else { 0.0 };
            row.insert("last_vs_median".to_string(), Value::Number(ratio));
            out.insert(key.to_string(), Value::Object(row));
        }
        Value::Object(out)
    }

    /// Writes the version-2 document — `{version, bench, entries, trend}` with the trend
    /// computed over `trend_keys` — to `path`.
    pub fn save(&self, path: &Path, trend_keys: &[&str]) -> Result<(), String> {
        let mut doc = BTreeMap::new();
        doc.insert("version".to_string(), Value::Integer(2));
        doc.insert("bench".to_string(), Value::String(self.bench.clone()));
        doc.insert("entries".to_string(), Value::Array(self.entries.clone()));
        doc.insert("trend".to_string(), self.trend(trend_keys));
        let mut text = serde_json::to_string_pretty(&Value::Object(doc)).expect("values render");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Resolves a dotted path (`"random_fair.speedup_fused_vs_baseline"`) to a number.
fn lookup(entry: &Value, key: &str) -> Option<f64> {
    let mut value = entry;
    for part in key.split('.') {
        value = value.get(part)?;
    }
    value.as_f64()
}

/// Median of `values` (mean of the middle pair for even counts); `None` when empty.
fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// `YYYY-MM-DD` (UTC) of a unix timestamp — Howard Hinnant's civil-from-days algorithm.
fn utc_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

/// A small builder for entry objects (the shim has no `json!` macro).
#[derive(Clone, Debug, Default)]
pub struct Entry(BTreeMap<String, Value>);

impl Entry {
    /// An empty entry.
    pub fn new() -> Entry {
        Entry::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Entry {
        self.0.insert(key.to_string(), Value::String(value.to_string()));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: i128) -> Entry {
        self.0.insert(key.to_string(), Value::Integer(value));
        self
    }

    /// Adds a float field.
    pub fn num(mut self, key: &str, value: f64) -> Entry {
        self.0.insert(key.to_string(), Value::Number(value));
        self
    }

    /// Adds an arbitrary [`Value`] field.
    pub fn val(mut self, key: &str, value: Value) -> Entry {
        self.0.insert(key.to_string(), value);
        self
    }

    /// The finished object.
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rate: f64) -> Value {
        Entry::new().num("delta_states_per_sec", rate).num("speedup", rate / 100.0).build()
    }

    #[test]
    fn legacy_single_object_loads_as_one_entry() {
        let dir = std::env::temp_dir().join(format!("klex-history-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        std::fs::write(&path, "{\"bench\": \"exhaustive_checker\", \"delta_states_per_sec\": 250}\n")
            .unwrap();
        let history = History::load(&path, "exhaustive_checker").unwrap();
        assert_eq!(history.entries.len(), 1);
        assert_eq!(history.recent("delta_states_per_sec"), vec![250.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_save_load_round_trips_and_caps() {
        let dir = std::env::temp_dir().join(format!("klex-history-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.json");
        let mut history = History::new("exhaustive_checker");
        for i in 0..(MAX_ENTRIES + 5) {
            history.append_dated(entry(100.0 + i as f64), 1_700_000_000 + i as u64 * 86_400);
        }
        assert_eq!(history.entries.len(), MAX_ENTRIES, "cap drops the oldest entries");
        history.save(&path, &["delta_states_per_sec", "speedup", "absent"]).unwrap();

        let reloaded = History::load(&path, "exhaustive_checker").unwrap();
        assert_eq!(reloaded.entries.len(), MAX_ENTRIES);
        // The trend block summarizes the last TREND_WINDOW entries and skips absent keys.
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["version"], 2u64);
        assert_eq!(doc["trend"]["delta_states_per_sec"]["n"], TREND_WINDOW as u64);
        assert_eq!(doc["trend"].get("absent"), None);
        let last = 100.0 + (MAX_ENTRIES + 4) as f64;
        assert_eq!(doc["trend"]["delta_states_per_sec"]["last"], last);
        assert!(doc["entries"][0].get("recorded").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_truncated_files_degrade_to_a_fresh_history() {
        let dir = std::env::temp_dir().join(format!("klex-history-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, content) in [
            ("truncated.json", "{\"version\": 2, \"entries\": [{\"a\""),
            ("not-json.json", "== bench crashed mid-write =="),
            ("bad-shape.json", "{\"version\": 2, \"entries\": 7}"),
            ("future.json", "{\"version\": 99, \"entries\": []}"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            let history = History::load(&path, "exhaustive_checker").unwrap();
            assert!(history.entries.is_empty(), "{name} must load as a fresh history");
            // The fresh history can immediately be saved over the corrupt file…
            history.save(&path, &[]).unwrap();
            // …after which it loads cleanly.
            assert!(History::load(&path, "exhaustive_checker").unwrap().entries.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn medians_and_dates_are_exact()  {
        let mut history = History::new("b");
        for rate in [300.0, 100.0, 200.0] {
            history.append(entry(rate));
        }
        assert_eq!(history.recent_median("delta_states_per_sec"), Some(200.0));
        history.append(entry(400.0));
        assert_eq!(history.recent_median("delta_states_per_sec"), Some(250.0));
        assert_eq!(history.recent_median("missing"), None);
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(1_754_524_800), "2025-08-07");
    }

    #[test]
    fn zero_valued_window_yields_a_finite_trend_and_a_loadable_document() {
        // Regression: a metric whose whole window is zero used to produce last/median =
        // 0/0 = NaN in the trend block; with NaN values in entries the `med != 0.0` guard
        // passed and the non-finite ratio reached the renderer.
        let dir = std::env::temp_dir().join(format!("klex-history-zero-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("zero.json");
        let mut history = History::new("treenet_engine");
        for _ in 0..4 {
            history.append(Entry::new().num("steps_per_sec", 0.0).build());
        }
        let trend = history.trend(&["steps_per_sec"]);
        assert_eq!(trend["steps_per_sec"]["median"], 0.0);
        assert_eq!(trend["steps_per_sec"]["last_vs_median"], 0.0, "0/0 must not reach NaN");
        history.save(&path, &["steps_per_sec"]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("NaN") && !text.contains("inf"), "document stays valid JSON");
        // Every later load sees a clean document, not a corrupted one.
        let reloaded = History::load(&path, "treenet_engine").unwrap();
        assert_eq!(reloaded.entries.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_values_are_excluded_from_windows_and_ratios() {
        let mut history = History::new("b");
        history.append(Entry::new().num("rate", 100.0).build());
        history.append(Entry::new().num("rate", f64::NAN).build());
        history.append(Entry::new().num("rate", f64::INFINITY).build());
        history.append(Entry::new().num("rate", 300.0).build());
        assert_eq!(history.recent("rate"), vec![100.0, 300.0], "non-finite values skipped");
        assert_eq!(history.recent_median("rate"), Some(200.0));
        let trend = history.trend(&["rate"]);
        assert_eq!(trend["rate"]["n"], 2u64);
        assert_eq!(trend["rate"]["last_vs_median"], 1.5);
        // A window that is *only* NaN has no usable data: the key is omitted entirely.
        let mut nan_only = History::new("b");
        nan_only.append(Entry::new().num("rate", f64::NAN).build());
        assert_eq!(nan_only.trend(&["rate"]).get("rate"), None);
    }

    #[test]
    fn committed_histories_save_back_byte_identical() {
        let dir = std::env::temp_dir().join(format!("klex-history-same-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (file, bench) in [
            ("BENCH_explorer.json", "exhaustive_checker"),
            ("BENCH_treenet.json", "treenet_engine"),
        ] {
            let original = std::fs::read_to_string(root.join(file)).unwrap();
            let doc = serde_json::from_str(&original).unwrap();
            let Value::Object(trend) = &doc["trend"] else { panic!("{file} has no trend block") };
            let keys: Vec<&str> = trend.keys().map(String::as_str).collect();
            let history = History::load(&root.join(file), bench).unwrap();
            history.save(&dir.join(file), &keys).unwrap();
            let saved = std::fs::read_to_string(dir.join(file)).unwrap();
            assert!(saved == original, "{file} changed on a load/save round trip");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
