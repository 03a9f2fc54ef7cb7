//! Golden corrupt-state-directory fixtures for `tdfsck`: each test
//! builds a healthy state directory, inflicts one specific class of
//! damage (torn manifest, orphan container, stale intent journal,
//! missing delta sidecar, bit-flipped snapshot), and asserts that check-only mode classifies
//! it with the exact [`FindingKind`] — and that repair mode remediates
//! it into a directory a strict `Service::open` accepts, without ever
//! deleting anything (corrupt files land in `quarantine/`).

use std::sync::Arc;

use tdfs_core::MatcherConfig;
use tdfs_graph::generators::rmat;
use tdfs_graph::EdgeBatch;
use tdfs_query::Pattern;
use tdfs_service::snapshot::{self, QuerySnapshot};
use tdfs_service::{
    fsck, DiskCatalog, FindingKind, Intent, QueryRequest, ResumeError, Service, ServiceConfig,
    Severity, Shard,
};
use tdfs_testkit::TempDir;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        plan_cache_capacity: 8,
        ..ServiceConfig::default()
    }
}

/// A healthy one-graph state directory: `g` registered persistently and
/// one batch applied (version 1, non-empty sidecar). Returns the exact
/// triangle counts at version 1 and at version 0 (the container base).
fn seeded_dir(tag: &str) -> (TempDir, u64, u64) {
    let tmp = TempDir::new(tag).unwrap();
    let g = Arc::new(rmat(7, 6, [0.45, 0.22, 0.22, 0.11], 7));
    let n = g.num_vertices() as u32;
    let opened = Service::open(tmp.path(), config()).unwrap();
    let svc = opened.service;
    svc.register_graph_persistent("g", g).unwrap();
    let base = triangles(&svc);
    let mut batch = EdgeBatch::new();
    for i in 0..20u32 {
        batch = batch.insert(i % n, (i * 7 + 1) % n);
    }
    svc.apply("g", &batch).unwrap();
    let at_v1 = triangles(&svc);
    (tmp, at_v1, base)
}

fn triangles(svc: &Service) -> u64 {
    svc.submit(QueryRequest::new("g", Pattern::clique(3)))
        .unwrap()
        .wait()
        .result
        .unwrap()
        .matches
}

fn has(report: &tdfs_service::FsckReport, kind: &FindingKind, severity: Severity) -> bool {
    report
        .findings
        .iter()
        .any(|f| f.kind == *kind && f.severity == severity)
}

/// A manifest torn mid-write (truncated to half its bytes) is an Error;
/// repair quarantines it and rebuilds the list from the containers that
/// verify, so the graph — and its intact sidecar — survive untouched.
#[test]
fn torn_manifest_is_rebuilt_from_verifying_containers() {
    let (tmp, want, _) = seeded_dir("tdfs-fsck-manifest");
    let manifest = tmp.path().join("MANIFEST");
    let bytes = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();

    let check = fsck(tmp.path(), false).unwrap();
    assert!(
        has(&check, &FindingKind::CorruptManifest, Severity::Error),
        "torn manifest must be classified: {check}"
    );
    assert!(check.errors() >= 1);

    let repair = fsck(tmp.path(), true).unwrap();
    assert!(has(&repair, &FindingKind::CorruptManifest, Severity::Error));
    let after = fsck(tmp.path(), false).unwrap();
    assert!(
        after.is_clean(),
        "repair must leave a clean directory:\n{after}"
    );
    // The torn original is evidence, not garbage.
    assert!(
        std::fs::read_dir(tmp.path().join("quarantine"))
            .unwrap()
            .count()
            >= 1,
        "torn manifest must be quarantined, not deleted"
    );

    let opened = Service::open(tmp.path(), config()).unwrap();
    let view = opened.service.catalog().get("g").expect("graph survives");
    assert_eq!(view.version(), 1, "sidecar must survive a manifest rebuild");
    assert_eq!(triangles(&opened.service), want);
}

/// A verifying container nothing references is an orphan: flagged as a
/// warning, quarantined (not deleted) by repair, and the referenced
/// graph is untouched.
#[test]
fn orphan_container_is_quarantined() {
    let (tmp, want, _) = seeded_dir("tdfs-fsck-orphan");
    let graphs = tmp.path().join("graphs");
    std::fs::copy(graphs.join("g.tdfsgrph"), graphs.join("orphan.tdfsgrph")).unwrap();

    let check = fsck(tmp.path(), false).unwrap();
    assert!(
        has(&check, &FindingKind::OrphanFile, Severity::Warning),
        "orphan container must be classified: {check}"
    );
    assert_eq!(check.errors(), 0, "an orphan is not an error: {check}");

    fsck(tmp.path(), true).unwrap();
    assert!(!graphs.join("orphan.tdfsgrph").exists());
    assert!(
        tmp.path()
            .join("quarantine")
            .join("orphan.tdfsgrph")
            .exists(),
        "orphan must be moved to quarantine, not deleted"
    );
    let after = fsck(tmp.path(), false).unwrap();
    assert!(after.is_clean(), "{after}");
    assert_eq!(
        triangles(&Service::open(tmp.path(), config()).unwrap().service),
        want
    );
}

/// A stale intent journal (the only trace of a transition whose process
/// died before its commit point) is a warning; repair applies the
/// journal recovery — here a roll-back, since no container matches the
/// intent — and clears the slot.
#[test]
fn stale_intent_journal_is_recovered_and_cleared() {
    let (tmp, want, _) = seeded_dir("tdfs-fsck-intent");
    let intent = Intent::InstallGraph {
        name: "phantom".into(),
        version: 3,
        container_len: 123,
        header_crc: 0xDEAD_BEEF,
    };
    let journal = tmp.path().join("JOURNAL");
    std::fs::write(&journal, intent.encode()).unwrap();

    let check = fsck(tmp.path(), false).unwrap();
    assert!(
        has(&check, &FindingKind::StaleIntent, Severity::Warning),
        "stale intent must be classified: {check}"
    );
    assert!(
        journal.exists(),
        "check-only mode must not touch the journal"
    );

    fsck(tmp.path(), true).unwrap();
    assert!(!journal.exists(), "repair must clear the recovered journal");
    let after = fsck(tmp.path(), false).unwrap();
    assert!(after.is_clean(), "{after}");
    assert_eq!(
        triangles(&Service::open(tmp.path(), config()).unwrap().service),
        want
    );
}

/// A journal that fails CRC validation is corruption (Error), not a
/// stale intent: repair quarantines it rather than acting on it.
#[test]
fn corrupt_journal_is_quarantined_not_replayed() {
    let (tmp, want, _) = seeded_dir("tdfs-fsck-badjournal");
    let journal = tmp.path().join("JOURNAL");
    let mut bytes = Intent::PutSnapshot { id: 7 }.encode();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // break the CRC trailer
    std::fs::write(&journal, &bytes).unwrap();

    let check = fsck(tmp.path(), false).unwrap();
    assert!(
        has(&check, &FindingKind::CorruptJournal, Severity::Error),
        "corrupt journal must be an error: {check}"
    );

    fsck(tmp.path(), true).unwrap();
    assert!(!journal.exists());
    assert!(tmp.path().join("quarantine").join("JOURNAL").exists());
    let after = fsck(tmp.path(), false).unwrap();
    assert!(after.is_clean(), "{after}");
    assert_eq!(
        triangles(&Service::open(tmp.path(), config()).unwrap().service),
        want
    );
}

/// A missing sidecar demotes the graph to version 0 — explicitly: a
/// warning in check mode, an empty version-0 sidecar written by repair,
/// and the reopened graph serves the container base exactly.
#[test]
fn missing_sidecar_resets_to_the_container_base() {
    let (tmp, _, base_want) = seeded_dir("tdfs-fsck-sidecar");
    std::fs::remove_file(tmp.path().join("graphs").join("g.delta")).unwrap();

    let check = fsck(tmp.path(), false).unwrap();
    assert!(
        has(&check, &FindingKind::MissingSidecar, Severity::Warning),
        "missing sidecar must be classified: {check}"
    );

    fsck(tmp.path(), true).unwrap();
    let after = fsck(tmp.path(), false).unwrap();
    assert!(after.is_clean(), "{after}");

    let opened = Service::open(tmp.path(), config()).unwrap();
    let view = opened.service.catalog().get("g").expect("graph survives");
    assert_eq!(view.version(), 0, "graph reloads at the container base");
    assert_eq!(triangles(&opened.service), base_want);
}

/// `DiskCatalog` round-trips every intent through the public journal
/// encoding, and a fixture journal written with [`Intent::encode`] is
/// read back verbatim by the catalog's own recovery reader.
#[test]
fn fixture_journals_match_the_catalog_reader() {
    let (tmp, _, _) = seeded_dir("tdfs-fsck-roundtrip");
    let intent = Intent::ApplyDelta {
        name: "g".into(),
        version: 42,
    };
    std::fs::write(tmp.path().join("JOURNAL"), intent.encode()).unwrap();
    let cat = DiskCatalog::open(tmp.path()).unwrap();
    // `open` itself recovers: ApplyDelta's sidecar write is atomic, so
    // the journal is simply cleared.
    assert!(!tmp.path().join("JOURNAL").exists());
    assert!(cat.read_journal().unwrap().is_none());
}

/// One flipped bit in a persisted snapshot's published count is
/// corruption: check-only mode reports `CorruptSnapshot`, a strict open
/// refuses to resume it, and repair quarantines the file. Without a
/// checksum the flipped count would decode and resume to a wrong total.
#[test]
fn bit_flipped_snapshot_is_corrupt_and_quarantined() {
    let (tmp, _, _) = seeded_dir("tdfs-fsck-snapflip");
    let snap = QuerySnapshot {
        graph: "g".to_owned(),
        graph_version: 1,
        pattern: Pattern::clique(3),
        config: MatcherConfig::tdfs().with_warps(1),
        edge_count: 10,
        matches: 357,
        emitted: 0,
        tasks_acked: 1,
        resumes: 0,
        next_task_id: 2,
        acked: vec![0],
        pending: vec![(1, 0, Shard { start: 4, end: 10 })],
    };
    let bytes = snapshot::encode(&snap);
    let path = tmp.path().join("snapshots").join("5.tdfssnap");
    DiskCatalog::open(tmp.path())
        .unwrap()
        .write_snapshot(5, &bytes)
        .unwrap();
    let clean = fsck(tmp.path(), false).unwrap();
    assert!(clean.is_clean(), "intact snapshot: {clean}");

    // Flip bit 40 of `matches`: the first byte where the encodings of
    // the two counts differ.
    let flipped = snapshot::encode(&QuerySnapshot {
        matches: snap.matches ^ (1 << 40),
        ..snap.clone()
    });
    let at = (0..bytes.len()).find(|&i| bytes[i] != flipped[i]).unwrap();
    let mut damaged = bytes.clone();
    damaged[at] = flipped[at];
    std::fs::write(&path, &damaged).unwrap();

    let check = fsck(tmp.path(), false).unwrap();
    assert!(
        has(&check, &FindingKind::CorruptSnapshot, Severity::Error),
        "bit flip must be classified: {check}"
    );
    let opened = Service::open(tmp.path(), config()).unwrap();
    assert!(opened.resumed.is_empty(), "a corrupt count must not resume");
    assert!(
        matches!(opened.failed.as_slice(), [(5, ResumeError::Decode(_))]),
        "{:?}",
        opened.failed
    );
    drop(opened);

    fsck(tmp.path(), true).unwrap();
    assert!(!path.exists());
    assert!(tmp.path().join("quarantine").join("5.tdfssnap").exists());
    let after = fsck(tmp.path(), false).unwrap();
    assert!(after.is_clean(), "{after}");
}
