//! Durable, checksummed snapshots of long-running recovery state.
//!
//! A recovery service accumulates expensive state: the bootstrapped
//! bound vectors (hours of simulated episodes), the progress of a
//! fault-injection campaign, and a serve daemon's live incidents. This
//! module is the container and the payload codec those runners write
//! through (each owns only its kind tag and its list of lines):
//!
//! * **Container format** — every snapshot is a single file with a
//!   one-line header `bpr-snapshot 1 <kind> <payload-bytes> <fnv64>`
//!   followed by the payload. The FNV-1a checksum covers the payload,
//!   so truncation, bit flips, and partially written files are all
//!   detected and reported as a typed [`SnapshotError`] instead of
//!   garbage state or a panic.
//! * **Atomic writes** — [`write_snapshot`] writes a temporary sibling
//!   file and renames it into place, so a kill mid-write leaves either
//!   the old snapshot or the new one, never a torn file.
//! * **Partitions** — [`write_partition`] / [`read_partition`] chain
//!   the files of a multi-file snapshot to their manifest's session and
//!   generation.
//! * **Payload codec** — [`PayloadWriter`] / [`PayloadReader`]: a
//!   payload is newline-terminated `key fields…` lines in a fixed
//!   order, fields separated by tabs or spaces (fixed per key).
//!   Integers are decimal, hashes `{:016x}`, flags `0`/`1`, floats `{:?}`
//!   (which round-trips every finite `f64` bit-for-bit), and free text
//!   is [`Sanitized`] so it cannot forge a field or a line. Every
//!   deviation reads as [`SnapshotError::Malformed`] naming the key and
//!   the field.
//! * **Policies** — [`CheckpointPolicy`] says where and how often a
//!   runner checkpoints; [`RetryPolicy`] with [`retry_with_backoff`]
//!   retries transient write failures.
//!
//! Because floats round-trip exactly, resuming from a snapshot
//! reproduces the uninterrupted run exactly (see
//! [`crate::bootstrap::bootstrap_par`] with a checkpoint policy).
//! Callers that hold seed state (e.g. the RA-Bound a bootstrap run
//! started from) treat every [`SnapshotError`] as "start fresh from the
//! seed": corruption degrades availability of the *checkpoint*, never
//! of the service.

use crate::Error;
use std::ffi::OsString;
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

/// Magic tag of the container header.
const MAGIC: &str = "bpr-snapshot";
/// Current container version.
const VERSION: &str = "1";

/// Why a snapshot could not be read (or written).
///
/// Every variant is recoverable by design: durable runners fall back to
/// their seed state and surface the error in their report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io {
        /// Stringified OS error.
        detail: String,
    },
    /// The file ends before the payload the header promised.
    Truncated {
        /// Payload bytes the header declared.
        expected: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match the header (bit flip or
    /// concurrent mutation).
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// The header declares a container version this build cannot read.
    VersionMismatch {
        /// The version string found in the header.
        found: String,
    },
    /// The file is a valid snapshot of a different kind (e.g. a
    /// campaign snapshot passed to a bootstrap resume).
    WrongKind {
        /// Kind the caller expected.
        expected: String,
        /// Kind the header declared.
        found: String,
    },
    /// The snapshot parsed but belongs to a different session
    /// (mismatched seed, config, or model shape).
    Incompatible {
        /// What differed.
        detail: String,
    },
    /// The header or payload is structurally malformed.
    Malformed {
        /// What failed to parse.
        detail: String,
    },
    /// Every attempt of a retried write failed with a transient IO
    /// error (see [`retry_with_backoff`]).
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: usize,
        /// Stringified OS error of the final attempt.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { detail } => write!(f, "snapshot io failure: {detail}"),
            SnapshotError::Truncated { expected, actual } => write!(
                f,
                "snapshot truncated: header promised {expected} payload bytes, found {actual}"
            ),
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            SnapshotError::VersionMismatch { found } => {
                write!(f, "snapshot version {found:?} is not readable by this build")
            }
            SnapshotError::WrongKind { expected, found } => {
                write!(f, "snapshot kind {found:?} where {expected:?} was expected")
            }
            SnapshotError::Incompatible { detail } => {
                write!(f, "snapshot belongs to a different session: {detail}")
            }
            SnapshotError::Malformed { detail } => write!(f, "snapshot malformed: {detail}"),
            SnapshotError::RetriesExhausted { attempts, detail } => write!(
                f,
                "snapshot write failed after {attempts} attempts; last error: {detail}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    /// A [`SnapshotError::Malformed`] with the given detail.
    pub fn malformed(detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            detail: detail.into(),
        }
    }
}

/// FNV-1a 64-bit hash — the payload checksum of the container format.
///
/// Dependency-free and byte-order independent; collision resistance is
/// not a goal (the threat model is corruption, not an adversary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Writes a snapshot atomically: the header + payload go to a `.tmp`
/// sibling first, which is then renamed over `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the temporary file cannot be written or
/// renamed.
pub fn write_snapshot(path: &Path, kind: &str, payload: &str) -> Result<(), SnapshotError> {
    let header = format!(
        "{MAGIC} {VERSION} {kind} {} {:016x}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    );
    let mut bytes = Vec::with_capacity(header.len() + payload.len());
    bytes.extend_from_slice(header.as_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    let tmp = sibling(path, ".tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| SnapshotError::Io {
        detail: format!("writing {}: {e}", tmp.display()),
    })?;
    std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io {
        detail: format!("renaming {} into place: {e}", tmp.display()),
    })
}

/// Reads and verifies a snapshot of the given kind.
///
/// Returns `Ok(None)` when the file does not exist — a missing
/// checkpoint is the normal first-run state, not an error.
///
/// # Errors
///
/// Any [`SnapshotError`] variant describing why the file cannot be
/// trusted; callers fall back to their seed state.
pub fn read_snapshot(path: &Path, kind: &str) -> Result<Option<String>, SnapshotError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(SnapshotError::Io {
                detail: format!("reading {}: {e}", path.display()),
            })
        }
    };
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(SnapshotError::malformed("no header line"))?;
    let header = std::str::from_utf8(&bytes[..=newline])
        .map_err(|_| SnapshotError::malformed("header is not UTF-8"))?;
    let mut f = PayloadReader::new(header)?.line(MAGIC, ' ', 4)?;
    let version = f.text()?;
    if version != VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version.to_string(),
        });
    }
    let found = f.text()?;
    if found != kind {
        return Err(SnapshotError::WrongKind {
            expected: kind.to_string(),
            found: found.to_string(),
        });
    }
    let (expected_len, expected_sum): (usize, u64) = (f.int()?, f.hex()?);
    let payload = &bytes[newline + 1..];
    if payload.len() < expected_len {
        return Err(SnapshotError::Truncated {
            expected: expected_len,
            actual: payload.len(),
        });
    }
    if payload.len() > expected_len {
        return Err(SnapshotError::Malformed {
            detail: format!(
                "trailing garbage: {} payload bytes where the header promised {}",
                payload.len(),
                expected_len
            ),
        });
    }
    let actual_sum = fnv1a64(payload);
    if actual_sum != expected_sum {
        return Err(SnapshotError::ChecksumMismatch {
            expected: expected_sum,
            actual: actual_sum,
        });
    }
    let payload = String::from_utf8(payload.to_vec())
        .map_err(|_| SnapshotError::malformed("payload is not UTF-8"))?;
    Ok(Some(payload))
}

/// The file a named partition of a multi-file snapshot lives in: the
/// base snapshot path with `.{label}` appended (`serve.snap` →
/// `serve.snap.p3`). Partitions are siblings of the manifest so a
/// single directory holds the whole checkpoint.
pub fn partition_path(base: &Path, label: &str) -> PathBuf {
    sibling(base, &format!(".{label}"))
}

/// `path` with `suffix` appended to its file name (`snapshot` when it
/// has none).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| OsString::from("snapshot"), |name| name.to_os_string());
    name.push(suffix);
    path.with_file_name(name)
}

/// Chain-line prefix tying a partition file to its manifest.
const CHAIN_KEY: &str = "chain";

/// Atomically writes one partition of a multi-file snapshot.
///
/// The payload is prefixed with a **chain line**
/// `chain <fingerprint> <generation> <label>` before going through
/// [`write_snapshot`], so a partition can only be read back by the
/// session and checkpoint generation that wrote it — a stale partition
/// left over from an earlier run (or copied from a different session)
/// is rejected as [`SnapshotError::Incompatible`] instead of being
/// silently mixed into a resume.
///
/// # Errors
///
/// [`SnapshotError::Io`] from the underlying write.
pub fn write_partition(
    base: &Path,
    label: &str,
    kind: &str,
    fingerprint: u64,
    generation: u64,
    payload: &str,
) -> Result<(), SnapshotError> {
    let chained = format!("{CHAIN_KEY} {fingerprint:016x} {generation} {label}\n{payload}");
    write_snapshot(&partition_path(base, label), kind, &chained)
}

/// Reads and verifies one partition of a multi-file snapshot.
///
/// Beyond the container checks of [`read_snapshot`], the chain line
/// must match the `(fingerprint, generation, label)` the caller's
/// manifest recorded. Returns the payload with the chain line
/// stripped, or `Ok(None)` when the partition file does not exist.
///
/// # Errors
///
/// * [`SnapshotError::Incompatible`] for a chain mismatch (wrong
///   session, wrong generation, or a file renamed across labels).
/// * Any other [`SnapshotError`] from the container layer.
pub fn read_partition(
    base: &Path,
    label: &str,
    kind: &str,
    fingerprint: u64,
    generation: u64,
) -> Result<Option<String>, SnapshotError> {
    let Some(chained) = read_snapshot(&partition_path(base, label), kind)? else {
        return Ok(None);
    };
    let (chain, payload) = chained
        .split_once('\n')
        .ok_or(SnapshotError::malformed("partition has no chain line"))?;
    let expected = format!("{CHAIN_KEY} {fingerprint:016x} {generation} {label}");
    if chain != expected {
        return Err(SnapshotError::Incompatible {
            detail: format!("partition chain {chain:?} where {expected:?} was expected"),
        });
    }
    Ok(Some(payload.to_string()))
}

/// Builds a payload: `writeln!(w, "key {} {}", a, b)` appends a line.
/// Formatting into memory cannot fail, so `write!` returns `()`.
#[derive(Debug, Default)]
pub struct PayloadWriter(String);

impl PayloadWriter {
    /// Appends formatted text: the target of `write!` and `writeln!`.
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        let _ = self.0.write_fmt(args); // `String` never fails
    }

    /// The finished payload.
    pub fn finish(self) -> String {
        self.0
    }
}

/// Displays free text with control characters replaced by spaces, so
/// it stays inside its field and its line.
#[derive(Debug)]
pub struct Sanitized<'a>(pub &'a str);

impl fmt::Display for Sanitized<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0
            .chars()
            .try_for_each(|c| f.write_char(if c.is_control() { ' ' } else { c }))
    }
}

/// Displays a list's items separated by one character.
#[derive(Debug)]
pub struct Joined<I>(pub I, pub char);

impl<I: IntoIterator<Item: fmt::Display> + Clone> fmt::Display for Joined<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.clone().into_iter().enumerate() {
            if i > 0 {
                f.write_char(self.1)?;
            }
            write!(f, "{item}")?;
        }
        Ok(())
    }
}

/// Parses a `sep`-separated list (empty text is the empty list);
/// `None` if an item does not parse.
pub fn parse_list<T: FromStr>(text: &str, sep: char) -> Option<Vec<T>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(sep).map(|item| item.parse().ok()).collect()
}

/// Reads a [`PayloadWriter`]'s lines in the order they were written.
/// Every method fails with [`SnapshotError::Malformed`] naming the key
/// (and the field) that is missing, out of place or unparseable.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    rest: &'a str,
}

impl<'a> PayloadReader<'a> {
    /// A reader over `payload`, which must end with a newline.
    pub fn new(payload: &'a str) -> Result<PayloadReader<'a>, SnapshotError> {
        if !payload.is_empty() && !payload.ends_with('\n') {
            return Err(SnapshotError::malformed("payload ends inside a line"));
        }
        Ok(PayloadReader { rest: payload })
    }

    /// The next line's `n` fields split on `sep`, if the line carries
    /// `key`: how repeated lines are read.
    pub fn next_if(
        &mut self,
        key: &'a str,
        sep: char,
        n: usize,
    ) -> Result<Option<Fields<'a>>, SnapshotError> {
        let Some((line, after)) = self.rest.split_once('\n') else {
            return Ok(None);
        };
        let Some(text) = line.strip_prefix(key).and_then(|l| l.strip_prefix(' ')) else {
            return Ok(None);
        };
        self.rest = after;
        if text.split(sep).count() != n {
            return Err(SnapshotError::malformed(format!(
                "`{key}` line: expected {n} fields, found {text:?}"
            )));
        }
        let items = text.split(sep);
        Ok(Some(Fields {
            key,
            items,
            index: 0,
        }))
    }

    /// The next line's `n` fields split on `sep`; the line must carry
    /// `key`.
    pub fn line(&mut self, key: &'a str, sep: char, n: usize) -> Result<Fields<'a>, SnapshotError> {
        self.next_if(key, sep, n)?
            .ok_or_else(|| self.unexpected(key))
    }

    /// The single integer field of the next line, which must carry `key`.
    pub fn int<T: FromStr>(&mut self, key: &'a str) -> Result<T, SnapshotError> {
        self.line(key, ' ', 1)?.int()
    }

    /// The next line as a `sep`-separated list of any length; the line
    /// must carry `key`.
    pub fn list<T: FromStr>(&mut self, key: &'a str, sep: char) -> Result<Vec<T>, SnapshotError> {
        // Split on the line terminator: the whole line is one field.
        self.line(key, '\n', 1)?
            .parse("a list", |s| parse_list(s, sep))
    }

    /// The unread lines verbatim: a trailing section in a format of its
    /// own.
    pub fn remainder(self) -> &'a str {
        self.rest
    }

    /// Checks that every line has been read.
    pub fn finish(self) -> Result<(), SnapshotError> {
        match self.rest.split_once('\n') {
            None => Ok(()),
            Some((line, _)) => Err(SnapshotError::malformed(format!(
                "unexpected line {line:?}"
            ))),
        }
    }

    fn unexpected(&self, key: &str) -> SnapshotError {
        SnapshotError::malformed(match self.rest.split_once('\n') {
            Some((line, _)) => format!("expected a `{key}` line, found {line:?}"),
            None => format!("missing required key `{key}`"),
        })
    }
}

/// The fields of one line, read in order. Each read fails with
/// [`SnapshotError::Malformed`] naming the key and the field number.
#[derive(Debug)]
pub struct Fields<'a> {
    key: &'a str,
    items: std::str::Split<'a, char>,
    index: usize,
}

impl<'a> Fields<'a> {
    /// The next field, parsed by `parse` (`None`: not `expected`).
    pub fn parse<T>(
        &mut self,
        expected: &str,
        parse: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, SnapshotError> {
        self.index += 1;
        let field = self.items.next().unwrap_or_default();
        parse(field).ok_or_else(|| {
            SnapshotError::malformed(format!(
                "`{}` field {}: expected {expected}, found {field:?}",
                self.key, self.index
            ))
        })
    }

    /// The next field as a decimal integer.
    pub fn int<T: FromStr>(&mut self) -> Result<T, SnapshotError> {
        self.parse("an integer", |s| s.parse().ok())
    }

    /// The next field as a `{:?}`-formatted float.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        self.parse("a float", |s| s.parse().ok())
    }

    /// The next field as a `{:016x}` hash.
    pub fn hex(&mut self) -> Result<u64, SnapshotError> {
        self.parse("16 hex digits", |s| {
            u64::from_str_radix(s, 16).ok().filter(|_| s.len() == 16)
        })
    }

    /// The next field as a `0`/`1` flag.
    pub fn flag(&mut self) -> Result<bool, SnapshotError> {
        self.parse("0 or 1", |s| (s == "0" || s == "1").then(|| s == "1"))
    }

    /// The next field as (sanitized) free text.
    pub fn text(&mut self) -> Result<&'a str, SnapshotError> {
        self.parse("text", Some)
    }
}

/// Where and how often a durable runner writes its snapshot.
///
/// Two triggers compose (whichever fires first wins):
///
/// * a **count** trigger — every [`CheckpointPolicy::every`] work
///   units (bootstrap rounds, campaign episodes, serve ticks), and
/// * an optional **wall-clock** trigger —
///   [`CheckpointPolicy::every_duration`] since the last snapshot,
///   for runners whose work units have wildly uneven durations (a
///   quiet serve daemon still checkpoints its counters on time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot file location (a `.tmp` sibling is used during writes).
    pub path: PathBuf,
    /// Work units (bootstrap rounds, campaign episodes) between
    /// snapshots. Must be at least 1.
    pub every: usize,
    /// Optional wall-clock interval between snapshots; `None` leaves
    /// the count trigger alone. Must be non-zero when present.
    pub every_duration: Option<Duration>,
}

impl CheckpointPolicy {
    /// A policy snapshotting every `every` work units to `path`, with
    /// no wall-clock trigger.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> CheckpointPolicy {
        CheckpointPolicy {
            path: path.into(),
            every,
            every_duration: None,
        }
    }

    /// Adds a wall-clock trigger: a snapshot is also due whenever
    /// `interval` has elapsed since the last one.
    pub fn with_every_duration(mut self, interval: Duration) -> CheckpointPolicy {
        self.every_duration = Some(interval);
        self
    }

    /// Rejects degenerate intervals.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when `every` is zero or a present
    /// `every_duration` is zero.
    pub fn validate(&self) -> Result<(), Error> {
        if self.every == 0 {
            return Err(Error::InvalidInput {
                detail: "checkpoint interval must be at least 1".into(),
            });
        }
        if self.every_duration == Some(Duration::ZERO) {
            return Err(Error::InvalidInput {
                detail: "checkpoint wall-clock interval must be non-zero".into(),
            });
        }
        Ok(())
    }

    /// Whether a snapshot is due, given the work units completed and
    /// the wall-clock time elapsed since the last snapshot.
    ///
    /// The wall-clock trigger only ever *adds* snapshots; callers that
    /// feed `Duration::ZERO` (or built the policy without a duration)
    /// get the pure count behaviour, which is what determinism checks
    /// compare.
    pub fn due(&self, units_since_last: usize, elapsed_since_last: Duration) -> bool {
        if units_since_last >= self.every {
            return true;
        }
        match self.every_duration {
            Some(interval) => units_since_last > 0 && elapsed_since_last >= interval,
            None => false,
        }
    }
}

/// Backoff schedule of [`retry_with_backoff`]: transient IO
/// errors are retried with capped exponential backoff; all other
/// snapshot errors surface immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Must be at least 1.
    pub max_attempts: usize,
    /// Sleep before the second attempt; doubles per retry.
    pub initial_backoff: Duration,
    /// Ceiling on any single sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The sleep preceding `attempt` (1-based: attempt 1 is the first
    /// retry): `initial_backoff << (attempt - 1)`, capped at
    /// `max_backoff`.
    pub fn backoff(&self, attempt: usize) -> Duration {
        let doublings = u32::try_from(attempt.saturating_sub(1)).unwrap_or(u32::MAX);
        let grown = self
            .initial_backoff
            .checked_mul(2u32.checked_pow(doublings).unwrap_or(u32::MAX))
            .unwrap_or(self.max_backoff);
        grown.min(self.max_backoff)
    }

    /// Rejects a policy that could never attempt anything.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when `max_attempts` is zero.
    pub fn validate(&self) -> Result<(), Error> {
        if self.max_attempts == 0 {
            return Err(Error::InvalidInput {
                detail: "retry policy must allow at least one attempt".into(),
            });
        }
        Ok(())
    }
}

/// Runs `op` under `retry`, sleeping via `sleep` between attempts.
///
/// Only [`SnapshotError::Io`] is treated as transient; any other error
/// returns immediately (a checksum mismatch or malformed file will not
/// heal by waiting). `op` receives the 0-based attempt index — test
/// fakes use it to fail the first *k* attempts.
///
/// The `sleep` parameter is injected rather than hard-wired so unit
/// tests can assert the backoff schedule without actually sleeping;
/// production callers pass `std::thread::sleep`.
///
/// # Errors
///
/// The non-IO error `op` returned, or
/// [`SnapshotError::RetriesExhausted`] after `max_attempts` IO
/// failures.
pub fn retry_with_backoff<T>(
    retry: &RetryPolicy,
    mut op: impl FnMut(usize) -> Result<T, SnapshotError>,
    mut sleep: impl FnMut(Duration),
) -> Result<T, SnapshotError> {
    let attempts = retry.max_attempts.max(1);
    let mut last_io = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            sleep(retry.backoff(attempt));
        }
        match op(attempt) {
            Ok(value) => return Ok(value),
            Err(SnapshotError::Io { detail }) => last_io = detail,
            Err(other) => return Err(other),
        }
    }
    Err(SnapshotError::RetriesExhausted {
        attempts,
        detail: last_io,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bpr_snapshot_{}_{name}", std::process::id()))
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn container_roundtrip() {
        let path = scratch("roundtrip");
        write_snapshot(&path, "demo", "hello\nworld\n").unwrap();
        assert_eq!(
            read_snapshot(&path, "demo").unwrap().as_deref(),
            Some("hello\nworld\n")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_none_not_an_error() {
        assert_eq!(read_snapshot(&scratch("missing"), "demo").unwrap(), None);
    }

    #[test]
    fn truncation_is_detected() {
        let path = scratch("truncated");
        write_snapshot(&path, "demo", "0123456789").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            read_snapshot(&path, "demo"),
            Err(SnapshotError::Truncated {
                expected: 10,
                actual: 7
            })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_is_detected() {
        let path = scratch("bitflip");
        write_snapshot(&path, "demo", "0123456789").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path, "demo"),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_and_kind_mismatches_are_typed() {
        let path = scratch("version");
        write_snapshot(&path, "demo", "x").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("bpr-snapshot 1", "bpr-snapshot 99", 1)).unwrap();
        assert!(matches!(
            read_snapshot(&path, "demo"),
            Err(SnapshotError::VersionMismatch { .. })
        ));
        write_snapshot(&path, "other", "x").unwrap();
        assert!(matches!(
            read_snapshot(&path, "demo"),
            Err(SnapshotError::WrongKind { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_header_is_malformed() {
        let path = scratch("garbage");
        std::fs::write(&path, "not a snapshot\nat all\n").unwrap();
        assert!(matches!(
            read_snapshot(&path, "demo"),
            Err(SnapshotError::Malformed { .. })
        ));
        std::fs::write(&path, [0xFFu8, 0xFE, b'\n']).unwrap();
        assert!(matches!(
            read_snapshot(&path, "demo"),
            Err(SnapshotError::Malformed { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partition_path_appends_the_label() {
        let base = PathBuf::from("/tmp/serve.snap");
        assert_eq!(
            partition_path(&base, "p3"),
            PathBuf::from("/tmp/serve.snap.p3")
        );
    }

    #[test]
    fn partition_roundtrips_under_its_chain() {
        let base = scratch("part_roundtrip");
        write_partition(&base, "p0", "demo-part", 0xABCD, 7, "line a\nline b\n").unwrap();
        assert_eq!(
            read_partition(&base, "p0", "demo-part", 0xABCD, 7)
                .unwrap()
                .as_deref(),
            Some("line a\nline b\n")
        );
        // An empty payload still carries its chain line.
        write_partition(&base, "p0", "demo-part", 0xABCD, 8, "").unwrap();
        assert_eq!(
            read_partition(&base, "p0", "demo-part", 0xABCD, 8)
                .unwrap()
                .as_deref(),
            Some("")
        );
        let _ = std::fs::remove_file(partition_path(&base, "p0"));
    }

    #[test]
    fn missing_partition_is_none_not_an_error() {
        let base = scratch("part_missing");
        assert_eq!(
            read_partition(&base, "p5", "demo-part", 1, 1).unwrap(),
            None
        );
    }

    #[test]
    fn partition_chain_mismatches_are_incompatible() {
        let base = scratch("part_chain");
        write_partition(&base, "p1", "demo-part", 0x1111, 3, "x\n").unwrap();
        // Wrong session fingerprint.
        assert!(matches!(
            read_partition(&base, "p1", "demo-part", 0x2222, 3),
            Err(SnapshotError::Incompatible { .. })
        ));
        // Stale generation (partition not rewritten by the checkpoint
        // the manifest describes).
        assert!(matches!(
            read_partition(&base, "p1", "demo-part", 0x1111, 4),
            Err(SnapshotError::Incompatible { .. })
        ));
        // A partition file renamed across labels is caught too.
        std::fs::rename(partition_path(&base, "p1"), partition_path(&base, "p2")).unwrap();
        assert!(matches!(
            read_partition(&base, "p2", "demo-part", 0x1111, 3),
            Err(SnapshotError::Incompatible { .. })
        ));
        let _ = std::fs::remove_file(partition_path(&base, "p2"));
    }

    #[test]
    fn corrupt_partition_surfaces_container_errors() {
        let base = scratch("part_corrupt");
        write_partition(&base, "p0", "demo-part", 9, 1, "payload\n").unwrap();
        let path = partition_path(&base, "p0");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_partition(&base, "p0", "demo-part", 9, 1),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_policy_validates() {
        assert!(CheckpointPolicy::new("x", 0).validate().is_err());
        assert!(CheckpointPolicy::new("x", 3).validate().is_ok());
        assert!(CheckpointPolicy::new("x", 3)
            .with_every_duration(Duration::ZERO)
            .validate()
            .is_err());
        assert!(CheckpointPolicy::new("x", 3)
            .with_every_duration(Duration::from_secs(1))
            .validate()
            .is_ok());
    }

    #[test]
    fn count_trigger_fires_on_every() {
        let p = CheckpointPolicy::new("x", 3);
        assert!(!p.due(2, Duration::from_secs(3600)));
        assert!(p.due(3, Duration::ZERO));
        assert!(p.due(4, Duration::ZERO));
    }

    #[test]
    fn duration_trigger_fires_between_counts() {
        let p = CheckpointPolicy::new("x", 1000).with_every_duration(Duration::from_secs(5));
        // Not due: below both thresholds.
        assert!(!p.due(10, Duration::from_secs(4)));
        // Due: the wall clock crossed the interval.
        assert!(p.due(10, Duration::from_secs(5)));
        // Never due with zero new work — there is nothing to persist.
        assert!(!p.due(0, Duration::from_secs(3600)));
        // The count trigger still works.
        assert!(p.due(1000, Duration::ZERO));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy {
            max_attempts: 6,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(70),
        };
        assert_eq!(r.backoff(1), Duration::from_millis(10));
        assert_eq!(r.backoff(2), Duration::from_millis(20));
        assert_eq!(r.backoff(3), Duration::from_millis(40));
        assert_eq!(r.backoff(4), Duration::from_millis(70));
        assert_eq!(r.backoff(60), Duration::from_millis(70));
        assert!(RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy::default().validate().is_ok());
    }

    /// A flaky writer: fails the first `flaky_for` attempts with a
    /// transient IO error, then succeeds.
    fn flaky_op(flaky_for: usize) -> impl FnMut(usize) -> Result<usize, SnapshotError> {
        move |attempt| {
            if attempt < flaky_for {
                Err(SnapshotError::Io {
                    detail: format!("transient failure #{attempt}"),
                })
            } else {
                Ok(attempt)
            }
        }
    }

    #[test]
    fn transient_io_errors_are_retried_with_backoff() {
        let retry = RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(25),
        };
        let mut slept = Vec::new();
        let got = retry_with_backoff(&retry, flaky_op(3), |d| slept.push(d)).unwrap();
        assert_eq!(got, 3, "succeeded on the fourth attempt");
        assert_eq!(
            slept,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(25), // capped
            ]
        );
    }

    #[test]
    fn exhausted_retries_surface_the_last_io_error() {
        let retry = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut sleeps = 0usize;
        let err = retry_with_backoff(&retry, flaky_op(99), |_| sleeps += 1).unwrap_err();
        assert_eq!(sleeps, 2, "two sleeps between three attempts");
        match err {
            SnapshotError::RetriesExhausted { attempts, detail } => {
                assert_eq!(attempts, 3);
                assert_eq!(detail, "transient failure #2");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        let retry = RetryPolicy::default();
        let mut calls = 0usize;
        let err = retry_with_backoff::<()>(
            &retry,
            |_| {
                calls += 1;
                Err(SnapshotError::ChecksumMismatch {
                    expected: 1,
                    actual: 2,
                })
            },
            |_| panic!("must not sleep on a permanent error"),
        )
        .unwrap_err();
        assert_eq!(calls, 1);
        assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }));
    }

    #[test]
    fn display_covers_all_variants() {
        let errs = [
            SnapshotError::Io { detail: "d".into() },
            SnapshotError::Truncated {
                expected: 2,
                actual: 1,
            },
            SnapshotError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            SnapshotError::VersionMismatch { found: "9".into() },
            SnapshotError::WrongKind {
                expected: "a".into(),
                found: "b".into(),
            },
            SnapshotError::Incompatible { detail: "d".into() },
            SnapshotError::Malformed { detail: "d".into() },
            SnapshotError::RetriesExhausted {
                attempts: 3,
                detail: "d".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
