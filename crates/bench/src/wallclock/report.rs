//! The `BENCH_<name>.json` schema: emission and strict parsing.
//!
//! Reports are hand-emitted and hand-parsed (the workspace is offline;
//! there is no serde_json), following the same fixed-schema byte-parser
//! idiom as `chason_telemetry::trace`. The emitter writes one result
//! object per line inside the `results` array so committed baselines diff
//! cleanly, and the parser accepts exactly that layout. Floats use Rust's
//! shortest round-trip formatting, so `parse(to_json(r)) == r` holds
//! bit-exactly for finite values.

/// Version stamped into every report; bump when the schema changes shape.
pub const SCHEMA_VERSION: u64 = 1;

/// Machine identity recorded alongside the numbers, so a baseline from a
/// different host class is recognizable in review.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// `std::env::consts::OS` at run time.
    pub os: String,
    /// `std::env::consts::ARCH` at run time.
    pub arch: String,
    /// Logical CPUs visible to the process.
    pub cpus: u64,
}

impl HostInfo {
    /// Samples the current host.
    pub fn current() -> Self {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        }
    }
}

/// One benchmark's measured result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable benchmark identifier, `group/case` (e.g. `spmv/static-t4`).
    pub id: String,
    /// FNV-1a fingerprint of the benchmark's input (matrix triplets or
    /// payload bytes), so a baseline measured on different data cannot be
    /// compared silently.
    pub fingerprint: u64,
    /// Untimed iterations executed before sampling started.
    pub warmup_iters: u64,
    /// Timed samples taken.
    pub samples: u64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Median nanoseconds per iteration across the samples.
    pub median_ns_per_iter: f64,
    /// Median absolute deviation of ns/iter across the samples — the
    /// noise scale the regression comparator guards with.
    pub mad_ns_per_iter: f64,
    /// Bytes moved per iteration; `0` when throughput is not meaningful
    /// for this benchmark (e.g. planning).
    pub bytes_per_iter: u64,
    /// Heap bytes of the schedule grids of the plan a replay benchmark
    /// executes; `0` for every other benchmark. Both footprint fields are
    /// omitted from the JSON when both are zero.
    pub plan_bytes: u64,
    /// Heap bytes of that plan's lowered replay streams.
    pub stream_bytes: u64,
}

impl BenchResult {
    /// Throughput in GB/s, when `bytes_per_iter` is meaningful.
    pub fn throughput_gbps(&self) -> Option<f64> {
        if self.bytes_per_iter == 0 || self.median_ns_per_iter <= 0.0 {
            None
        } else {
            Some(self.bytes_per_iter as f64 / self.median_ns_per_iter)
        }
    }
}

/// A full `BENCH_<name>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] for reports this build writes).
    pub schema_version: u64,
    /// Report name: the `<name>` in `BENCH_<name>.json`.
    pub name: String,
    /// Measurement profile the run used (`smoke` or `full`).
    pub profile: String,
    /// Host the numbers were measured on.
    pub host: HostInfo,
    /// One entry per benchmark, in registry order.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// The file name this report is committed under.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Looks a result up by its stable id.
    pub fn get(&self, id: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.id == id)
    }

    /// Serializes the report; see the module docs for the layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema_version\":{},\"name\":\"{}\",\"profile\":\"{}\",",
            self.schema_version,
            escape(&self.name),
            escape(&self.profile)
        ));
        out.push_str(&format!(
            "\"host\":{{\"os\":\"{}\",\"arch\":\"{}\",\"cpus\":{}}},\"results\":[\n",
            escape(&self.host.os),
            escape(&self.host.arch),
            self.host.cpus
        ));
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                concat!(
                    "{{\"id\":\"{}\",\"fingerprint\":{},\"warmup_iters\":{},",
                    "\"samples\":{},\"iters_per_sample\":{},\"median_ns_per_iter\":{},",
                    "\"mad_ns_per_iter\":{},\"bytes_per_iter\":{}}}"
                ),
                escape(&r.id),
                r.fingerprint,
                r.warmup_iters,
                r.samples,
                r.iters_per_sample,
                fmt_f64(r.median_ns_per_iter),
                fmt_f64(r.mad_ns_per_iter),
                r.bytes_per_iter
            ));
            if r.plan_bytes > 0 || r.stream_bytes > 0 {
                // Appended inside the object only for replay benchmarks, so
                // reports without plans keep their exact v1 layout.
                out.pop();
                out.push_str(&format!(
                    ",\"plan_bytes\":{},\"stream_bytes\":{}}}",
                    r.plan_bytes, r.stream_bytes
                ));
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses a document produced by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first deviation from
    /// the emitted schema, and rejects schema versions newer than this
    /// build understands.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let mut p = Parser::new(text);
        p.expect_str("{\"schema_version\":")?;
        let schema_version = p.parse_u64()?;
        if schema_version > SCHEMA_VERSION {
            return Err(format!(
                "report schema v{schema_version} is newer than this build (v{SCHEMA_VERSION})"
            ));
        }
        p.expect_str(",\"name\":")?;
        let name = p.parse_string()?;
        p.expect_str(",\"profile\":")?;
        let profile = p.parse_string()?;
        p.expect_str(",\"host\":{\"os\":")?;
        let os = p.parse_string()?;
        p.expect_str(",\"arch\":")?;
        let arch = p.parse_string()?;
        p.expect_str(",\"cpus\":")?;
        let cpus = p.parse_u64()?;
        p.expect_str("},\"results\":[")?;
        p.skip_newlines();
        let mut results = Vec::new();
        if p.peek() != Some(b']') {
            loop {
                results.push(p.parse_result()?);
                p.skip_newlines();
                match p.peek() {
                    Some(b',') => {
                        p.pos += 1;
                        p.skip_newlines();
                    }
                    _ => break,
                }
            }
        }
        p.expect_str("]}")?;
        p.skip_newlines();
        if !p.at_end() {
            return p.fail("trailing bytes after report object");
        }
        Ok(BenchReport {
            schema_version,
            name,
            profile,
            host: HostInfo { os, arch, cpus },
            results,
        })
    }
}

/// Formats a float with Rust's shortest round-trip representation;
/// non-finite values (which valid measurements never produce) are clamped
/// to 0 so the output stays parseable JSON.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("byte {}: {what}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Some(b'\n') | Some(b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_str(&mut self, s: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(())
        } else {
            self.fail(&format!("expected {s:?}"))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return self.fail("expected '\"'");
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return self.fail("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|e| e.to_string())?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|e| format!("\\u: {e}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => return self.fail(&format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number_text(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if start == self.pos {
            return self.fail("expected a number");
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        let text = self.number_text()?;
        text.parse::<u64>().map_err(|e| format!("{text:?}: {e}"))
    }

    fn parse_f64(&mut self) -> Result<f64, String> {
        let text = self.number_text()?;
        text.parse::<f64>().map_err(|e| format!("{text:?}: {e}"))
    }

    fn parse_result(&mut self) -> Result<BenchResult, String> {
        self.expect_str("{\"id\":")?;
        let id = self.parse_string()?;
        self.expect_str(",\"fingerprint\":")?;
        let fingerprint = self.parse_u64()?;
        self.expect_str(",\"warmup_iters\":")?;
        let warmup_iters = self.parse_u64()?;
        self.expect_str(",\"samples\":")?;
        let samples = self.parse_u64()?;
        self.expect_str(",\"iters_per_sample\":")?;
        let iters_per_sample = self.parse_u64()?;
        self.expect_str(",\"median_ns_per_iter\":")?;
        let median_ns_per_iter = self.parse_f64()?;
        self.expect_str(",\"mad_ns_per_iter\":")?;
        let mad_ns_per_iter = self.parse_f64()?;
        self.expect_str(",\"bytes_per_iter\":")?;
        let bytes_per_iter = self.parse_u64()?;
        let (mut plan_bytes, mut stream_bytes) = (0, 0);
        if self.expect_str(",\"plan_bytes\":").is_ok() {
            plan_bytes = self.parse_u64()?;
            self.expect_str(",\"stream_bytes\":")?;
            stream_bytes = self.parse_u64()?;
        }
        self.expect_str("}")?;
        Ok(BenchResult {
            id,
            fingerprint,
            warmup_iters,
            samples,
            iters_per_sample,
            median_ns_per_iter,
            mad_ns_per_iter,
            bytes_per_iter,
            plan_bytes,
            stream_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            name: "smoke".to_string(),
            profile: "smoke".to_string(),
            host: HostInfo {
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                cpus: 8,
            },
            results: vec![
                BenchResult {
                    id: "spmv/static-t4".to_string(),
                    fingerprint: 0xDEAD_BEEF,
                    warmup_iters: 3,
                    samples: 10,
                    iters_per_sample: 17,
                    median_ns_per_iter: 10_431.25,
                    mad_ns_per_iter: 12.5,
                    bytes_per_iter: 480_000,
                    plan_bytes: 0,
                    stream_bytes: 0,
                },
                BenchResult {
                    id: "plan/chason-t1".to_string(),
                    fingerprint: 7,
                    warmup_iters: 1,
                    samples: 5,
                    iters_per_sample: 1,
                    median_ns_per_iter: 2.25e6,
                    mad_ns_per_iter: 0.0,
                    bytes_per_iter: 0,
                    plan_bytes: 0,
                    stream_bytes: 0,
                },
                BenchResult {
                    id: "replay/chason".to_string(),
                    fingerprint: 9,
                    warmup_iters: 2,
                    samples: 10,
                    iters_per_sample: 4,
                    median_ns_per_iter: 31_000.5,
                    mad_ns_per_iter: 40.0,
                    bytes_per_iter: 720_000,
                    plan_bytes: 9_000_000,
                    stream_bytes: 1_100_000,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let json = report.to_json();
        assert_eq!(BenchReport::parse(&json).unwrap(), report);
    }

    #[test]
    fn plan_footprints_appear_only_on_replay_results() {
        let json = sample_report().to_json();
        assert_eq!(json.matches("\"plan_bytes\"").count(), 1);
        assert!(json
            .contains("\"bytes_per_iter\":720000,\"plan_bytes\":9000000,\"stream_bytes\":1100000"));
    }

    #[test]
    fn empty_results_round_trip() {
        let mut report = sample_report();
        report.results.clear();
        assert_eq!(BenchReport::parse(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn throughput_is_none_when_not_meaningful() {
        let report = sample_report();
        assert!(report
            .get("plan/chason-t1")
            .unwrap()
            .throughput_gbps()
            .is_none());
        let gbps = report
            .get("spmv/static-t4")
            .unwrap()
            .throughput_gbps()
            .unwrap();
        assert!((gbps - 480_000.0 / 10_431.25).abs() < 1e-9);
    }

    #[test]
    fn newer_schema_is_rejected() {
        let json =
            sample_report()
                .to_json()
                .replacen("\"schema_version\":1", "\"schema_version\":999", 1);
        let err = BenchReport::parse(&json).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn garbage_is_rejected_with_offset() {
        assert!(BenchReport::parse("not json").is_err());
        let mut json = sample_report().to_json();
        json.push('x');
        let err = BenchReport::parse(&json).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }
}
