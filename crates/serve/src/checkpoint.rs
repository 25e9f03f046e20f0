//! Durable daemon state: a **manifest plus per-shard incident
//! partitions**, so resume cost scales with live incidents rather
//! than history.
//!
//! Live incidents are *not* serialised controller-by-controller —
//! each one is a pure function of `(master_seed, incident id,
//! admission rung)`, so the checkpoint stores only that triple plus
//! the decision count, and resume **replays** each survivor from step
//! 0 up to its recorded position. Replay reconstructs the exact
//! controller, belief, world, and RNG state the killed run held, which
//! is what makes the "identical decision sequence across
//! kill/resume" gate hold by construction instead of by serialisation
//! discipline.
//!
//! # On-disk layout
//!
//! * **Manifest** (`<base>`, kind `serve-manifest`) — the commit
//!   point, written *last*: counters, the admission queue, every live
//!   incident's identity triple, and a partition table recording each
//!   partition's generation, payload checksum, and contents.
//! * **Partitions** (`<base>.p<k>`, kind `serve-part`) — incident
//!   `id` belongs to partition `id % partitions`. A partition holds
//!   the *growing* state of its incidents: the replay positions of
//!   its live ones and the closed records of its finished ones. Each
//!   is written by atomic rename and chained to the manifest through
//!   `(session fingerprint, generation)` via
//!   [`bpr_core::snapshot::write_partition`]; partitions whose
//!   payload is unchanged since the last checkpoint are *skipped*, so
//!   a steady-state checkpoint rewrites only the partitions with live
//!   incidents — O(live), not O(history).
//!
//! # Failure containment
//!
//! A corrupt, missing, or stale partition degrades **only its own
//! incidents**: its closed records are dropped (counted, typed) and
//! its live incidents are re-admitted fresh from step 0, while every
//! other partition replays exactly. A corrupt manifest degrades the
//! whole checkpoint to a fresh run — exactly the monolithic
//! behaviour, now scoped to the one file that is small and rewritten
//! every checkpoint.

use crate::incident::{IncidentRecord, IncidentStatus, RungKind};
use bpr_core::snapshot::{
    fnv1a64, parse_list, read_partition, read_snapshot, write_partition, write_snapshot, Fields,
    Joined, PayloadReader, PayloadWriter, Sanitized, SnapshotError,
};
use bpr_mdp::StateId;
use std::path::Path;

/// Container kind tag of the checkpoint manifest.
pub const SERVE_MANIFEST_KIND: &str = "serve-manifest";
/// Container kind tag of incident partition files.
pub const SERVE_PARTITION_KIND: &str = "serve-part";

/// A live incident's resume descriptor (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveIncident {
    /// Incident id (RNG stream index).
    pub id: u64,
    /// Injected fault.
    pub fault: StateId,
    /// Rung the incident was admitted on.
    pub admitted_rung: RungKind,
    /// Decisions made before the checkpoint.
    pub steps: usize,
}

/// The logical state of a serve run — what the partitioned files
/// reassemble into on load.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCheckpoint {
    /// Hash of the session parameters (seed, config, model shape,
    /// event source); a resume with different parameters is rejected
    /// as [`SnapshotError::Incompatible`].
    pub fingerprint: u64,
    /// Source ticks already consumed.
    pub tick: u64,
    /// Daemon rounds already executed.
    pub rounds: u64,
    /// Next incident id to assign.
    pub next_id: u64,
    /// Events seen so far.
    pub events_seen: u64,
    /// Events shed because the queue was full.
    pub shed_queue_full: u64,
    /// Incidents admitted so far.
    pub admitted: u64,
    /// Overload admissions straight onto the anytime rung.
    pub degraded_admissions: u64,
    /// Escalations into the resilient rung.
    pub escalated_resilient: u64,
    /// Escalations into the anytime rung.
    pub escalated_anytime: u64,
    /// Total decisions so far.
    pub decisions: u64,
    /// Queued-but-not-admitted faults, front first.
    pub queue: Vec<StateId>,
    /// Live incidents to replay.
    pub live: Vec<LiveIncident>,
    /// Closed incident records.
    pub records: Vec<IncidentRecord>,
}

/// How one partition fared during a load. Only partitions that could
/// **not** be restored produce an outcome; the daemon surfaces them in
/// the report and the accounting (`records_dropped`) keeps the
/// zero-loss invariant checkable.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// Partition index.
    pub partition: u32,
    /// Why the partition could not be trusted.
    pub error: SnapshotError,
    /// Live incidents degraded to fresh admission (replay from 0).
    pub live_degraded: u64,
    /// Closed records lost with the partition.
    pub records_dropped: u64,
}

/// Per-partition `(generation, checksum, live, records)` bookkeeping
/// the writer carries across checkpoints so unchanged partitions are
/// skipped instead of rewritten.
#[derive(Debug, Clone, Default)]
pub struct PartitionCache {
    entries: Vec<Option<PartEntry>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PartEntry {
    generation: u64,
    fnv: u64,
    live: u64,
    records: u64,
}

impl PartitionCache {
    fn resize(&mut self, partitions: u32) {
        self.entries.resize(partitions as usize, None);
    }
}

/// Appends the `record` line of one closed incident.
fn write_record(w: &mut PayloadWriter, r: &IncidentRecord) {
    write!(
        w,
        "record {}\t{}\t{}\t{}\t{:?}\t{:016x}\t{}\t{}\t{}\t",
        r.id,
        r.fault.index(),
        r.status.as_str(),
        r.steps,
        r.cost,
        r.decision_hash,
        r.admitted_rung.as_str(),
        r.final_rung.as_str(),
        r.escalations,
    );
    match &r.actions {
        None => write!(w, "none"),
        Some(seq) => write!(w, "some:{}", Joined(seq, ',')),
    }
    writeln!(w, "\t{}", Sanitized(&r.detail));
}

/// Parses the 11 fields of a `record` line written by [`write_record`].
fn read_record(mut f: Fields<'_>) -> Result<IncidentRecord, SnapshotError> {
    Ok(IncidentRecord {
        id: f.int()?,
        fault: StateId::new(f.int()?),
        status: f.parse("an incident status", |s| IncidentStatus::parse(s).ok())?,
        steps: f.int()?,
        cost: f.f64()?,
        decision_hash: f.hex()?,
        admitted_rung: read_rung(&mut f)?,
        final_rung: read_rung(&mut f)?,
        escalations: f.int()?,
        actions: f.parse("`none` or `some:` actions", |s| {
            match s.strip_prefix("some:") {
                Some(items) => parse_list(items, ',').map(Some),
                None => (s == "none").then_some(None),
            }
        })?,
        detail: f.text()?.to_string(),
    })
}

fn read_rung(f: &mut Fields<'_>) -> Result<RungKind, SnapshotError> {
    f.parse("a rung", |s| RungKind::parse(s).ok())
}

impl ServeCheckpoint {
    /// The partition an incident id belongs to.
    fn partition_of(id: u64, partitions: u32) -> u32 {
        (id % u64::from(partitions.max(1))) as u32
    }

    /// Serialises partition `k`: replay positions of its live
    /// incidents plus its closed records. Returns the payload and its
    /// `(live, records)` counts.
    fn partition_payload(&self, k: u32, partitions: u32) -> (String, u64, u64) {
        let mut w = PayloadWriter::default();
        let mut live = 0u64;
        let mut records = 0u64;
        for l in &self.live {
            if Self::partition_of(l.id, partitions) == k {
                writeln!(w, "steps {} {}", l.id, l.steps);
                live += 1;
            }
        }
        for r in &self.records {
            if Self::partition_of(r.id, partitions) == k {
                write_record(&mut w, r);
                records += 1;
            }
        }
        (w.finish(), live, records)
    }

    /// Serialises the manifest payload (container header excluded).
    fn encode_manifest(&self, generation: u64, partitions: u32, cache: &PartitionCache) -> String {
        let mut w = PayloadWriter::default();
        writeln!(w, "fingerprint {:016x}", self.fingerprint);
        writeln!(w, "generation {generation}");
        writeln!(w, "tick {}", self.tick);
        writeln!(w, "rounds {}", self.rounds);
        writeln!(w, "next {}", self.next_id);
        writeln!(
            w,
            "counts {} {} {} {} {} {} {}",
            self.events_seen,
            self.shed_queue_full,
            self.admitted,
            self.degraded_admissions,
            self.escalated_resilient,
            self.escalated_anytime,
            self.decisions
        );
        let queue = self.queue.iter().map(|s| s.index());
        writeln!(w, "queue {}", Joined(queue, ' '));
        writeln!(w, "partitions {partitions}");
        for l in &self.live {
            writeln!(
                w,
                "live {}\t{}\t{}",
                l.id,
                l.fault.index(),
                l.admitted_rung.as_str(),
            );
        }
        for (k, entry) in cache.entries.iter().enumerate() {
            let e = entry
                .as_ref()
                .expect("every partition is paid out before the manifest");
            writeln!(
                w,
                "part {k} {} {:016x} {} {}",
                e.generation, e.fnv, e.live, e.records
            );
        }
        w.finish()
    }

    /// Writes the checkpoint: changed partitions first (each by
    /// atomic rename, chained to `(fingerprint, generation)`), the
    /// manifest last as the commit point. `cache` carries partition
    /// checksums across calls so unchanged partitions are skipped.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] from any underlying write. Partitions
    /// already written before the failure are consistent on disk and
    /// will be skipped by a retry.
    pub fn save_partitioned(
        &self,
        base: &Path,
        partitions: u32,
        generation: u64,
        cache: &mut PartitionCache,
    ) -> Result<(), SnapshotError> {
        let partitions = partitions.max(1);
        cache.resize(partitions);
        for k in 0..partitions {
            let (payload, live, records) = self.partition_payload(k, partitions);
            let fnv = fnv1a64(payload.as_bytes());
            let entry = &mut cache.entries[k as usize];
            let unchanged = entry.as_ref().is_some_and(|e| e.fnv == fnv);
            if unchanged {
                // Content identical to what is already on disk — keep
                // the old generation, skip the write.
                let e = entry.as_mut().expect("unchanged implies present");
                e.live = live;
                e.records = records;
                continue;
            }
            if !payload.is_empty() || entry.is_some() {
                write_partition(
                    base,
                    &format!("p{k}"),
                    SERVE_PARTITION_KIND,
                    self.fingerprint,
                    generation,
                    &payload,
                )?;
            }
            // An empty, never-written partition gets a table entry but
            // no file; the loader skips empty entries.
            *entry = Some(PartEntry {
                generation,
                fnv,
                live,
                records,
            });
        }
        write_snapshot(
            base,
            SERVE_MANIFEST_KIND,
            &self.encode_manifest(generation, partitions, cache),
        )
    }

    /// Loads a partitioned checkpoint: the manifest plus every
    /// partition it references. Returns `Ok(None)` when no manifest
    /// exists yet.
    ///
    /// A partition that is missing, corrupt, checksum-divergent, or
    /// chained to the wrong generation is **degraded, not fatal**: its
    /// closed records are dropped and its live incidents come back
    /// with `steps = 0` (fresh admission), each failure reported as a
    /// typed [`PartitionOutcome`]. The returned generation seeds the
    /// resumed writer's generation counter.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] for an unreadable *manifest* — the
    /// commit point itself cannot be trusted, so the whole checkpoint
    /// degrades to a fresh run.
    pub fn load_partitioned(
        base: &Path,
    ) -> Result<Option<(ServeCheckpoint, u64, Vec<PartitionOutcome>)>, SnapshotError> {
        let Some(payload) = read_snapshot(base, SERVE_MANIFEST_KIND)? else {
            return Ok(None);
        };
        let mut r = PayloadReader::new(&payload)?;
        let fingerprint = r.line("fingerprint", ' ', 1)?.hex()?;
        let generation = r.int("generation")?;
        let (tick, rounds, next_id) = (r.int("tick")?, r.int("rounds")?, r.int("next")?);
        let mut counts = r.line("counts", ' ', 7)?;
        let mut cp = ServeCheckpoint {
            fingerprint,
            tick,
            rounds,
            next_id,
            events_seen: counts.int()?,
            shed_queue_full: counts.int()?,
            admitted: counts.int()?,
            degraded_admissions: counts.int()?,
            escalated_resilient: counts.int()?,
            escalated_anytime: counts.int()?,
            decisions: counts.int()?,
            queue: r
                .list("queue", ' ')?
                .into_iter()
                .map(StateId::new)
                .collect(),
            live: Vec::new(),
            records: Vec::new(),
        };
        let n_partitions: u32 = r.int("partitions")?;
        while let Some(mut f) = r.next_if("live", '\t', 3)? {
            cp.live.push(LiveIncident {
                id: f.int()?,
                fault: StateId::new(f.int()?),
                admitted_rung: read_rung(&mut f)?,
                steps: 0,
            });
        }
        let mut parts: Vec<PartEntry> = Vec::new();
        while let Some(mut f) = r.next_if("part", ' ', 5)? {
            f.parse("the next partition index", |s| {
                (s.parse() == Ok(parts.len())).then_some(())
            })?;
            parts.push(PartEntry {
                generation: f.int()?,
                fnv: f.hex()?,
                live: f.int()?,
                records: f.int()?,
            });
        }
        r.finish()?;
        let live_listed: u64 = parts.iter().map(|p| p.live).sum();
        if n_partitions == 0
            || parts.len() != n_partitions as usize
            || cp.live.len() as u64 != live_listed
        {
            return Err(SnapshotError::malformed(
                "the partition table does not match the partition count or the live incidents",
            ));
        }
        let mut outcomes = Vec::new();
        for (k, entry) in (0..n_partitions).zip(parts) {
            if entry.live == 0 && entry.records == 0 {
                continue;
            }
            let loaded = read_partition(
                base,
                &format!("p{k}"),
                SERVE_PARTITION_KIND,
                fingerprint,
                entry.generation,
            )
            .and_then(|p| {
                p.ok_or_else(|| SnapshotError::Io {
                    detail: format!("partition p{k} is missing"),
                })
            })
            .and_then(|p| {
                let actual = fnv1a64(p.as_bytes());
                if actual == entry.fnv {
                    Ok(p)
                } else {
                    Err(SnapshotError::ChecksumMismatch {
                        expected: entry.fnv,
                        actual,
                    })
                }
            })
            .and_then(|p| parse_partition(&p, &entry));
            match loaded {
                Ok((steps, mut recs)) => {
                    for (id, s) in steps {
                        if let Some(l) = cp.live.iter_mut().find(|l| l.id == id) {
                            l.steps = s;
                        }
                    }
                    cp.records.append(&mut recs);
                }
                // Degrade only this partition: its records are gone
                // (counted) and its live incidents keep steps = 0 —
                // fresh admission.
                Err(error) => outcomes.push(PartitionOutcome {
                    partition: k,
                    error,
                    live_degraded: entry.live,
                    records_dropped: entry.records,
                }),
            }
        }
        cp.records.sort_by_key(|r| r.id);
        Ok(Some((cp, generation, outcomes)))
    }
}

/// Live replay positions (`(incident id, steps)`) plus closed records
/// — the contents of one partition file.
type PartitionContents = (Vec<(u64, usize)>, Vec<IncidentRecord>);

/// Parses a partition payload into `(live replay positions, records)`,
/// which must number what the manifest's `entry` lists.
fn parse_partition(payload: &str, entry: &PartEntry) -> Result<PartitionContents, SnapshotError> {
    let mut r = PayloadReader::new(payload)?;
    let mut steps = Vec::new();
    while let Some(mut f) = r.next_if("steps", ' ', 2)? {
        steps.push((f.int()?, f.int()?));
    }
    let mut records = Vec::new();
    while let Some(f) = r.next_if("record", '\t', 11)? {
        records.push(read_record(f)?);
    }
    r.finish()?;
    if (steps.len() as u64, records.len() as u64) != (entry.live, entry.records) {
        return Err(SnapshotError::malformed(format!(
            "partition holds {} live incidents and {} records where the manifest lists {} and {}",
            steps.len(),
            records.len(),
            entry.live,
            entry.records
        )));
    }
    Ok((steps, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpr_core::snapshot::partition_path;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bpr_serve_cp_{}_{name}", std::process::id()))
    }

    fn cleanup(base: &Path, partitions: u32) {
        let _ = std::fs::remove_file(base);
        for k in 0..partitions {
            let _ = std::fs::remove_file(partition_path(base, &format!("p{k}")));
        }
    }

    fn sample() -> ServeCheckpoint {
        ServeCheckpoint {
            fingerprint: 0xDEAD_BEEF,
            tick: 42,
            rounds: 45,
            next_id: 7,
            events_seen: 100,
            shed_queue_full: 11,
            admitted: 7,
            degraded_admissions: 2,
            escalated_resilient: 3,
            escalated_anytime: 1,
            decisions: 55,
            queue: vec![StateId::new(1), StateId::new(0)],
            live: vec![
                LiveIncident {
                    id: 5,
                    fault: StateId::new(1),
                    admitted_rung: RungKind::Anytime,
                    steps: 9,
                },
                LiveIncident {
                    id: 6,
                    fault: StateId::new(0),
                    admitted_rung: RungKind::Bounded,
                    steps: 2,
                },
            ],
            records: vec![
                IncidentRecord {
                    id: 0,
                    fault: StateId::new(0),
                    status: IncidentStatus::Recovered,
                    steps: 4,
                    cost: 1.5,
                    decision_hash: 0x1234,
                    admitted_rung: RungKind::Bounded,
                    final_rung: RungKind::Bounded,
                    escalations: 0,
                    detail: String::new(),
                    actions: Some(vec![0, 2, -1]),
                },
                IncidentRecord {
                    id: 1,
                    fault: StateId::new(1),
                    status: IncidentStatus::Quarantined,
                    steps: 0,
                    cost: 0.0,
                    decision_hash: 0xABCD,
                    admitted_rung: RungKind::Bounded,
                    final_rung: RungKind::Resilient,
                    escalations: 1,
                    detail: "panic: boom ".into(),
                    actions: None,
                },
            ],
        }
    }

    #[test]
    fn partitioned_checkpoint_roundtrips() {
        for partitions in [1u32, 3, 8] {
            let base = scratch(&format!("roundtrip{partitions}"));
            cleanup(&base, partitions);
            let cp = sample();
            let mut cache = PartitionCache::default();
            cp.save_partitioned(&base, partitions, 1, &mut cache)
                .unwrap();
            let (loaded, generation, outcomes) =
                ServeCheckpoint::load_partitioned(&base).unwrap().unwrap();
            assert_eq!(generation, 1);
            assert!(outcomes.is_empty(), "{outcomes:?}");
            assert_eq!(loaded, cp, "partitions = {partitions}");
            cleanup(&base, partitions);
        }
    }

    /// The manifest and every partition payload of a fixed checkpoint
    /// (live incidents, `some:`/`some:` empty/`none` actions, a detail
    /// with control characters, an empty partition) reproduce pinned
    /// digests, so no codec change can move the on-disk bytes
    /// unnoticed.
    #[test]
    fn payloads_match_pinned_digests() {
        let base = scratch("pinned_digests");
        cleanup(&base, 5);
        let mut cp = sample();
        cp.records[1].detail = "panic:\tboom\nat\r\u{1b}[0m".into();
        cp.records.push(IncidentRecord {
            id: 3,
            fault: StateId::new(2),
            status: IncidentStatus::StepLimit,
            steps: 30,
            cost: -0.0,
            decision_hash: u64::MAX,
            admitted_rung: RungKind::Anytime,
            final_rung: RungKind::Anytime,
            escalations: 2,
            detail: "step cap 30".into(),
            actions: Some(Vec::new()),
        });
        cp.save_partitioned(&base, 5, 4, &mut PartitionCache::default())
            .unwrap();
        let manifest = read_snapshot(&base, SERVE_MANIFEST_KIND).unwrap().unwrap();
        let parts: Vec<u64> = (0..5)
            .map(|k| {
                let payload = read_partition(
                    &base,
                    &format!("p{k}"),
                    SERVE_PARTITION_KIND,
                    cp.fingerprint,
                    4,
                )
                .unwrap()
                .unwrap_or_default();
                fnv1a64(payload.as_bytes())
            })
            .collect();
        cleanup(&base, 5);
        assert_eq!(
            fnv1a64(manifest.as_bytes()),
            3197316732834093957,
            "{manifest}"
        );
        assert_eq!(
            parts,
            [
                14578412678876773246,
                11086025084564832851,
                14695981039346656037,
                3889541864771596982,
                14695981039346656037
            ]
        );
    }

    #[test]
    fn control_characters_in_details_are_sanitized_on_write() {
        let base = scratch("sanitize");
        cleanup(&base, 2);
        let mut cp = sample();
        cp.records[1].detail = "panic:\tboom\n".into();
        let mut cache = PartitionCache::default();
        cp.save_partitioned(&base, 2, 1, &mut cache).unwrap();
        let (loaded, _, _) = ServeCheckpoint::load_partitioned(&base).unwrap().unwrap();
        assert_eq!(loaded.records[1].detail, "panic: boom ");
        cleanup(&base, 2);
    }

    #[test]
    fn unchanged_partitions_are_skipped_on_rewrite() {
        let base = scratch("skip");
        cleanup(&base, 4);
        let mut cp = sample();
        let mut cache = PartitionCache::default();
        cp.save_partitioned(&base, 4, 1, &mut cache).unwrap();
        // Only incident 5 (partition 1) advances; partitions 0, 2, 3
        // are untouched and must not be rewritten.
        let before: Vec<Option<std::time::SystemTime>> = (0..4)
            .map(|k| {
                std::fs::metadata(partition_path(&base, &format!("p{k}")))
                    .ok()
                    .and_then(|m| m.modified().ok())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        cp.live[0].steps = 10;
        cp.save_partitioned(&base, 4, 2, &mut cache).unwrap();
        let after: Vec<Option<std::time::SystemTime>> = (0..4)
            .map(|k| {
                std::fs::metadata(partition_path(&base, &format!("p{k}")))
                    .ok()
                    .and_then(|m| m.modified().ok())
            })
            .collect();
        assert_ne!(before[1], after[1], "dirty partition rewritten");
        for k in [0usize, 2, 3] {
            assert_eq!(before[k], after[k], "clean partition p{k} rewritten");
        }
        // The mixed-generation checkpoint still loads exactly.
        let (loaded, generation, outcomes) =
            ServeCheckpoint::load_partitioned(&base).unwrap().unwrap();
        assert_eq!(generation, 2);
        assert!(outcomes.is_empty());
        assert_eq!(loaded, cp);
        cleanup(&base, 4);
    }

    #[test]
    fn corrupt_partition_degrades_only_its_incidents() {
        let base = scratch("degrade");
        cleanup(&base, 2);
        let cp = sample();
        let mut cache = PartitionCache::default();
        cp.save_partitioned(&base, 2, 1, &mut cache).unwrap();
        // Flip a byte in partition 1 (incidents 1 and 5).
        let p1 = partition_path(&base, "p1");
        let mut bytes = std::fs::read(&p1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        std::fs::write(&p1, &bytes).unwrap();

        let (loaded, _, outcomes) = ServeCheckpoint::load_partitioned(&base).unwrap().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].partition, 1);
        assert_eq!(outcomes[0].live_degraded, 1, "incident 5 degraded");
        assert_eq!(outcomes[0].records_dropped, 1, "record 1 dropped");
        assert!(matches!(
            outcomes[0].error,
            SnapshotError::ChecksumMismatch { .. }
        ));
        // Partition 0 replays exactly; partition 1's survivor is fresh.
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].id, 0);
        let i5 = loaded.live.iter().find(|l| l.id == 5).unwrap();
        assert_eq!(i5.steps, 0, "degraded to fresh admission");
        assert_eq!(i5.fault, StateId::new(1), "identity survives in manifest");
        let i6 = loaded.live.iter().find(|l| l.id == 6).unwrap();
        assert_eq!(i6.steps, 2, "healthy partition replays exactly");
        cleanup(&base, 2);
    }

    #[test]
    fn missing_partition_is_degraded_not_fatal() {
        let base = scratch("missing_part");
        cleanup(&base, 2);
        let cp = sample();
        let mut cache = PartitionCache::default();
        cp.save_partitioned(&base, 2, 1, &mut cache).unwrap();
        std::fs::remove_file(partition_path(&base, "p0")).unwrap();
        let (loaded, _, outcomes) = ServeCheckpoint::load_partitioned(&base).unwrap().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].partition, 0);
        assert_eq!(outcomes[0].records_dropped, 1);
        assert_eq!(loaded.live.iter().find(|l| l.id == 6).unwrap().steps, 0);
        assert_eq!(loaded.live.iter().find(|l| l.id == 5).unwrap().steps, 9);
        cleanup(&base, 2);
    }

    #[test]
    fn stale_partition_from_an_earlier_generation_is_rejected() {
        let base = scratch("stale_gen");
        cleanup(&base, 2);
        let mut cp = sample();
        let mut cache = PartitionCache::default();
        cp.save_partitioned(&base, 2, 1, &mut cache).unwrap();
        let p1 = partition_path(&base, "p1");
        let old = std::fs::read(&p1).unwrap();
        // Advance the dirty partition, then put the stale file back —
        // simulating a torn multi-file update.
        cp.live[0].steps = 30;
        cp.save_partitioned(&base, 2, 2, &mut cache).unwrap();
        std::fs::write(&p1, &old).unwrap();
        let (_, _, outcomes) = ServeCheckpoint::load_partitioned(&base).unwrap().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(
            matches!(outcomes[0].error, SnapshotError::Incompatible { .. }),
            "{:?}",
            outcomes[0].error
        );
        cleanup(&base, 2);
    }

    #[test]
    fn corrupt_manifest_is_fatal_for_the_whole_checkpoint() {
        let base = scratch("bad_manifest");
        cleanup(&base, 2);
        let cp = sample();
        let mut cache = PartitionCache::default();
        cp.save_partitioned(&base, 2, 1, &mut cache).unwrap();
        std::fs::write(&base, "garbage, not a snapshot\n").unwrap();
        assert!(ServeCheckpoint::load_partitioned(&base).is_err());
        cleanup(&base, 2);
    }

    #[test]
    fn missing_manifest_is_none_not_an_error() {
        let base = scratch("no_manifest");
        cleanup(&base, 1);
        assert!(ServeCheckpoint::load_partitioned(&base).unwrap().is_none());
    }
}
