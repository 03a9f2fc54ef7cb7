//! The on-disk catalog: a service state directory that survives
//! restarts — and power loss.
//!
//! Layout under one root directory:
//!
//! ```text
//! <root>/MANIFEST               # TDFSCATL: registered graph names
//! <root>/JOURNAL                # TDFSJRNL: in-flight transition intent
//! <root>/graphs/<name>.tdfsgrph # TDFSGRPH container (immutable base)
//! <root>/graphs/<name>.delta    # TDFSDELT: version + cumulative overlay
//! <root>/snapshots/<id>.tdfssnap# suspended-query checkpoints
//! <root>/tmp/                   # staging for atomic writes
//! <root>/quarantine/            # where tdfsck moves unidentifiable files
//! ```
//!
//! **Crash consistency.** Every mutation flows through the
//! [`Vfs`] seam (`tdfs_graph::vfs`), so the whole protocol can run under
//! the simulated-power-loss filesystem in `tdfs-testkit` and be swept
//! for recovery at every syscall boundary.
//!
//! *Single files* are written via *tmp + fsync + atomic rename + parent
//! fsync*: bytes go to a uniquely named staging file under `tmp/`
//! (`tmp/<name>.<seq>` — two concurrent writes to the same final path
//! can never share a staging file), the file is `sync_all`'d, renamed
//! into place, and the parent directory is fsynced (on POSIX a rename
//! without the directory fsync is allowed to vanish on power loss). A
//! crash mid-write leaves only garbage under `tmp/` — cleared on the
//! next [`DiskCatalog::open`] — and never a torn `MANIFEST`, container,
//! delta or snapshot. Readers double-check anyway: every record here
//! except the container is sealed by the shared [`codec`](crate::codec)
//! (magic, version, CRC-32 trailer; snapshots from `TDFSSNAP` version 3
//! on), so a torn file that somehow reached its final name is a typed
//! error, never a wrong graph.
//!
//! *Multi-file transitions* — installing a container plus its sidecar
//! plus a manifest entry ([`DiskCatalog::install_graph`]: register,
//! compact, cluster adoption) — get a write-ahead **intent journal**
//! (`JOURNAL`, magic `TDFSJRNL`). The protocol: stage the container and
//! fsync it; journal the [`Intent`] (atomically, durably); rename the
//! container into place; finish the dependent files (sidecar, manifest);
//! clear the journal. The container rename is the *commit point*: the
//! journal records the staged container's fingerprint (length + stored
//! header CRC), and recovery at [`DiskCatalog::open`] checks whether the
//! final container matches it. Match → the rename committed, so recovery
//! *rolls forward* (rewrites the empty sidecar at the intent's version,
//! re-unions the manifest — both idempotent). No match → nothing
//! observable happened, so recovery *rolls back* by clearing the
//! journal. Either way the catalog lands on exactly the pre- or
//! post-transition state, never a hybrid (e.g. a freshly compacted
//! container shadowed by the stale pre-compaction overlay, which would
//! double-apply edges).
//!
//! Single-file mutations (delta sidecar, snapshot put/remove) are also
//! journaled so an interrupted one is visible to `tdfsck` as typed
//! intent rather than anonymous leftovers; their recovery is trivial
//! (the atomic write makes either outcome consistent; snapshot removal
//! is re-run).
//!
//! The delta sidecar (`TDFSDELT`) persists a [`DeltaCsr`]'s *cumulative*
//! effective overlay — normalized `u < v` insert/delete edge lists vs
//! the immutable container base — plus the [`GraphVersion`], so a
//! restarted service rebuilds the exact same view
//! ([`DeltaCsr::with_overlay`]) at the exact same version. Compaction
//! rewrites the container and shrinks the sidecar to an empty overlay
//! that still records the version.
//!
//! [`DeltaCsr`]: tdfs_graph::DeltaCsr
//! [`DeltaCsr::with_overlay`]: tdfs_graph::DeltaCsr::with_overlay

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use tdfs_graph::vfs::{RealFs, Vfs, WriteSeek};
use tdfs_graph::{ContainerError, GraphVersion, VertexId};

use crate::codec::{DecodeError, Reader, Writer};

/// Magic prefix of the `MANIFEST` file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"TDFSCATL";
/// Magic prefix of a `.delta` overlay sidecar.
pub const DELTA_MAGIC: &[u8; 8] = b"TDFSDELT";
/// Magic prefix of the `JOURNAL` intent record.
pub const JOURNAL_MAGIC: &[u8; 8] = b"TDFSJRNL";
/// On-disk format version of all three sealed records (bumped together).
pub const DISK_VERSION: u16 = 1;

/// Byte range of the container header CRC inside a `TDFSGRPH` file,
/// used (with the file length) as the install commit-point fingerprint.
const CONTAINER_HEADER_CRC_RANGE: std::ops::Range<usize> = 80..84;

/// Why a storage operation failed. All typed — a corrupt or torn file
/// surfaces as an error, never a panic or a silently wrong catalog.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying filesystem error.
    Io(String),
    /// The graph name cannot be used as a file name (empty, too long,
    /// or containing characters outside `[A-Za-z0-9._-]`).
    BadName(String),
    /// `MANIFEST` is missing, torn, or fails its checksum.
    Manifest(&'static str),
    /// The intent `JOURNAL` is torn or fails its checksum. Strict open
    /// refuses (the last transition's outcome is unknowable); salvage
    /// mode quarantines it and continues.
    Journal(&'static str),
    /// A graph container failed to open/verify.
    Container(ContainerError),
    /// A `.delta` overlay sidecar is torn or inconsistent.
    Delta { graph: String, reason: &'static str },
    /// The persisted overlay does not fit its container base.
    Overlay(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o: {e}"),
            StorageError::BadName(n) => write!(f, "graph name {n:?} is not storable"),
            StorageError::Manifest(r) => write!(f, "catalog manifest: {r}"),
            StorageError::Journal(r) => write!(f, "intent journal: {r}"),
            StorageError::Container(e) => write!(f, "graph container: {e}"),
            StorageError::Delta { graph, reason } => {
                write!(f, "delta sidecar for {graph:?}: {reason}")
            }
            StorageError::Overlay(e) => write!(f, "persisted overlay rejected: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

impl From<ContainerError> for StorageError {
    fn from(e: ContainerError) -> Self {
        StorageError::Container(e)
    }
}

/// A persisted overlay sidecar, decoded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PersistedDelta {
    /// The catalog version the graph was at.
    pub version: GraphVersion,
    /// Cumulative effective inserts vs the container base (`u < v`).
    pub inserts: Vec<(VertexId, VertexId)>,
    /// Cumulative effective deletes vs the container base (`u < v`).
    pub deletes: Vec<(VertexId, VertexId)>,
}

impl PersistedDelta {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::record(DELTA_MAGIC, DISK_VERSION);
        w.u64(self.version);
        w.u64(self.inserts.len() as u64);
        w.u64(self.deletes.len() as u64);
        for &(u, v) in self.inserts.iter().chain(&self.deletes) {
            w.u32(u);
            w.u32(v);
        }
        w.seal()
    }

    fn decode(bytes: &[u8]) -> Result<PersistedDelta, DecodeError> {
        let mut r = Reader::unseal(bytes, DELTA_MAGIC, DISK_VERSION)?;
        let version = r.u64()?;
        let (num_inserts, num_deletes) = (r.u64()?, r.u64()?);
        let mut edge = |r: &mut Reader| {
            let (u, v) = (r.u32()?, r.u32()?);
            if u >= v {
                return Err(DecodeError::Corrupt("unnormalized edge (expected u < v)"));
            }
            Ok((u, v))
        };
        let inserts = r.list(num_inserts, 8, &mut edge)?;
        let deletes = r.list(num_deletes, 8, &mut edge)?;
        r.done()?;
        Ok(PersistedDelta {
            version,
            inserts,
            deletes,
        })
    }
}

/// A journaled in-flight transition (see the module docs for the
/// recovery action each one implies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Intent {
    /// A container is being installed (register / compact / adoption).
    /// `container_len` + `header_crc` fingerprint the staged container;
    /// the rename into place is the commit point.
    InstallGraph {
        name: String,
        version: GraphVersion,
        container_len: u64,
        header_crc: u32,
    },
    /// A delta sidecar is being replaced (apply-batch persistence).
    ApplyDelta { name: String, version: GraphVersion },
    /// A snapshot checkpoint is being written.
    PutSnapshot { id: u64 },
    /// A snapshot checkpoint is being removed (consumed by resume).
    DropSnapshot { id: u64 },
}

impl Intent {
    /// Serializes to the on-disk `JOURNAL` format (magic, disk version,
    /// tag + fields, CRC32 trailer). Public for tooling and fixtures;
    /// the service writes journals only through its own transitions.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::record(JOURNAL_MAGIC, DISK_VERSION);
        match self {
            Intent::InstallGraph {
                name,
                version,
                container_len,
                header_crc,
            } => {
                w.u8(1);
                w.str16(name);
                w.u64(*version);
                w.u64(*container_len);
                w.u32(*header_crc);
            }
            Intent::ApplyDelta { name, version } => {
                w.u8(2);
                w.str16(name);
                w.u64(*version);
            }
            Intent::PutSnapshot { id } => {
                w.u8(3);
                w.u64(*id);
            }
            Intent::DropSnapshot { id } => {
                w.u8(4);
                w.u64(*id);
            }
        }
        w.seal()
    }

    /// Parses an on-disk `JOURNAL`; every validation failure is a typed
    /// [`StorageError::Journal`].
    pub fn decode(bytes: &[u8]) -> Result<Intent, StorageError> {
        let read = || {
            let mut r = Reader::unseal(bytes, JOURNAL_MAGIC, DISK_VERSION)?;
            let intent = match r.u8()? {
                1 => Intent::InstallGraph {
                    name: read_name(&mut r)?,
                    version: r.u64()?,
                    container_len: r.u64()?,
                    header_crc: r.u32()?,
                },
                2 => Intent::ApplyDelta {
                    name: read_name(&mut r)?,
                    version: r.u64()?,
                },
                3 => Intent::PutSnapshot { id: r.u64()? },
                4 => Intent::DropSnapshot { id: r.u64()? },
                _ => return Err(DecodeError::Corrupt("unknown intent tag")),
            };
            r.done()?;
            Ok(intent)
        };
        read().map_err(|e| StorageError::Journal(e.reason()))
    }
}

/// A state-directory name: `u16` length prefix, then a name that passes
/// [`validate_name`].
fn read_name(r: &mut Reader) -> Result<String, DecodeError> {
    let name = r.str16()?;
    validate_name(&name).map_err(|_| DecodeError::Corrupt("unstorable name"))?;
    Ok(name)
}

/// What [`DiskCatalog::open`] found and did about an interrupted
/// transition (surfaced so `tdfsck` and tests can report it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// No journal: the previous shutdown finished its last transition.
    Clean,
    /// The intent's commit point had been reached; the dependent files
    /// were re-derived (rolled forward).
    RolledForward(Intent),
    /// The intent's commit point had not been reached; the journal was
    /// discarded (rolled back).
    RolledBack(Intent),
}

/// Handle to a service state directory (see the module docs).
/// Staging-name uniquifier shared by every catalog in the process:
/// `tmp/<name>.<seq>`. Process-global (not per-catalog) so two
/// `DiskCatalog` instances pointed at the same root can still never
/// collide on a staging file.
static STAGING_SEQ: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
pub struct DiskCatalog {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    /// Serializes journaled transitions (one `JOURNAL` slot). Poisoned
    /// locks are tolerated: a chaos panic mid-transition must not wedge
    /// every later catalog mutation.
    journal_lock: Mutex<()>,
    /// What recovery happened at open (for reporting; `Clean` after).
    recovery: Recovery,
}

/// `name` must be safe to embed in a file name.
pub fn validate_name(name: &str) -> Result<(), StorageError> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(StorageError::BadName(name.to_owned()))
    }
}

/// Fingerprints a container file for the install commit point: its
/// length plus the header CRC stored at bytes 80..84. (The streaming
/// writer seeks back to patch the header, so a whole-file CRC cannot be
/// computed while writing; the header CRC covers the layout everything
/// else hangs off, and per-segment CRCs cover the payload at load.)
fn container_fingerprint(path: &Path) -> std::io::Result<Option<(u64, u32)>> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let len = f.metadata()?.len();
    if len < CONTAINER_HEADER_CRC_RANGE.end as u64 {
        return Ok(Some((len, 0)));
    }
    let mut header = [0u8; CONTAINER_HEADER_CRC_RANGE.end];
    f.read_exact(&mut header)?;
    let crc = u32::from_le_bytes(header[CONTAINER_HEADER_CRC_RANGE].try_into().unwrap());
    Ok(Some((len, crc)))
}

impl DiskCatalog {
    /// Opens `root` on the real filesystem. See [`DiskCatalog::open_with`].
    pub fn open(root: impl Into<PathBuf>) -> Result<DiskCatalog, StorageError> {
        DiskCatalog::open_with(root, RealFs::arc())
    }

    /// Opens `root` as a state directory through `vfs`, creating the
    /// layout (and an empty `MANIFEST`) if absent, clearing staging
    /// leftovers from a previous crash, and recovering any journaled
    /// in-flight transition (roll forward past its commit point, roll
    /// back before it).
    pub fn open_with(
        root: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<DiskCatalog, StorageError> {
        let root = root.into();
        vfs.create_dir_all(&root.join("graphs"))?;
        vfs.create_dir_all(&root.join("snapshots"))?;
        vfs.create_dir_all(&root.join("tmp"))?;
        let mut cat = DiskCatalog {
            root,
            vfs,
            journal_lock: Mutex::new(()),
            recovery: Recovery::Clean,
        };
        // Torn staging files from a crash mid-write are garbage by
        // design; make sure they can never shadow real state.
        let tmp = cat.root.join("tmp");
        for name in cat.vfs.read_dir(&tmp)? {
            cat.vfs.remove_file(&tmp.join(name))?;
        }
        if !cat.manifest_path().exists() {
            cat.write_manifest(&[])?;
        }
        cat.recovery = cat.recover_journal()?;
        Ok(cat)
    }

    /// A catalog handle over `root` that performs **no** I/O — no layout
    /// creation, no staging cleanup, no journal recovery. `tdfsck` uses
    /// this so a check-only pass never mutates the directory it audits.
    pub(crate) fn probe(root: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> DiskCatalog {
        DiskCatalog {
            root: root.into(),
            vfs,
            journal_lock: Mutex::new(()),
            recovery: Recovery::Clean,
        }
    }

    /// The state directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The filesystem seam all mutations flow through.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// What journal recovery happened when this catalog was opened.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("MANIFEST")
    }

    /// Path of the intent journal.
    pub fn journal_path(&self) -> PathBuf {
        self.root.join("JOURNAL")
    }

    /// Path of the container for graph `name`.
    pub fn graph_path(&self, name: &str) -> PathBuf {
        self.root.join("graphs").join(format!("{name}.tdfsgrph"))
    }

    /// Path of the overlay sidecar for graph `name`.
    pub fn delta_path(&self, name: &str) -> PathBuf {
        self.root.join("graphs").join(format!("{name}.delta"))
    }

    /// Path of the snapshot checkpoint for suspended query `id`.
    pub fn snapshot_path(&self, id: u64) -> PathBuf {
        self.root.join("snapshots").join(format!("{id}.tdfssnap"))
    }

    /// A unique staging path for an atomic write targeting `file_name`.
    fn staging_path(&self, file_name: &std::ffi::OsStr) -> PathBuf {
        let seq = STAGING_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut staged = file_name.to_os_string();
        staged.push(format!(".{seq}"));
        self.root.join("tmp").join(staged)
    }

    /// Writes `bytes` to `final_path` atomically and durably: uniquely
    /// named staging file under `tmp/`, fsync, rename into place, fsync
    /// of the parent directory (without which POSIX lets the rename
    /// vanish on power loss). The `catalog.write.midfile` fault point
    /// fires with half the payload written — a panic there models the
    /// torn-write crash the rename protocol makes invisible.
    pub fn write_atomic(&self, final_path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let file_name = final_path
            .file_name()
            .ok_or(StorageError::Manifest("atomic write without a file name"))?;
        let parent = final_path
            .parent()
            .ok_or(StorageError::Manifest("atomic write without a parent dir"))?;
        let tmp = self.staging_path(file_name);
        {
            let mut f = self.vfs.create(&tmp)?;
            let mid = bytes.len() / 2;
            f.write_all(&bytes[..mid])?;
            crate::chaos_point!("catalog.write.midfile");
            f.write_all(&bytes[mid..])?;
            f.sync_all()?;
        }
        self.vfs.rename(&tmp, final_path)?;
        self.vfs.sync_dir(parent)?;
        Ok(())
    }

    // -- intent journal ------------------------------------------------

    /// The current journaled intent, if any. `Ok(None)` means the last
    /// transition completed.
    pub fn read_journal(&self) -> Result<Option<Intent>, StorageError> {
        let path = self.journal_path();
        let mut bytes = Vec::new();
        match File::open(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
            Ok(mut f) => f.read_to_end(&mut bytes)?,
        };
        Intent::decode(&bytes).map(Some)
    }

    fn set_journal(&self, intent: &Intent) -> Result<(), StorageError> {
        self.write_atomic(&self.journal_path(), &intent.encode())
    }

    fn clear_journal(&self) -> Result<(), StorageError> {
        self.vfs.remove_file(&self.journal_path())?;
        Ok(self.vfs.sync_dir(&self.root)?)
    }

    /// Applies the recovery action for a leftover intent (see module
    /// docs). Called once from `open_with` (and by `tdfsck` repair);
    /// all actions are idempotent.
    pub(crate) fn recover_journal(&self) -> Result<Recovery, StorageError> {
        let Some(intent) = self.read_journal()? else {
            return Ok(Recovery::Clean);
        };
        let forward = match &intent {
            Intent::InstallGraph {
                name,
                version,
                container_len,
                header_crc,
            } => {
                let committed = container_fingerprint(&self.graph_path(name))?
                    == Some((*container_len, *header_crc));
                if committed {
                    // The rename landed: re-derive the dependent files.
                    // The sidecar is reset to an empty overlay at the
                    // intent's version (exactly what the interrupted
                    // transition would have written — and what prevents
                    // a compacted container from being double-applied
                    // through its stale pre-compaction overlay).
                    self.write_delta_raw(
                        name,
                        &PersistedDelta {
                            version: *version,
                            ..PersistedDelta::default()
                        },
                    )?;
                    let mut names = self.read_manifest()?;
                    if !names.iter().any(|n| n == name) {
                        names.push(name.clone());
                        self.write_manifest(&names)?;
                    }
                }
                committed
            }
            // The sidecar / snapshot write is itself atomic: whichever
            // side of it the crash landed on is consistent. Nothing to
            // re-derive.
            Intent::ApplyDelta { .. } | Intent::PutSnapshot { .. } => false,
            Intent::DropSnapshot { id } => {
                // Re-run the removal; it is idempotent.
                self.vfs.remove_file(&self.snapshot_path(*id))?;
                self.vfs.sync_dir(&self.root.join("snapshots"))?;
                true
            }
        };
        self.clear_journal()?;
        Ok(if forward {
            Recovery::RolledForward(intent)
        } else {
            Recovery::RolledBack(intent)
        })
    }

    fn lock_journal(&self) -> std::sync::MutexGuard<'_, ()> {
        self.journal_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    // -- graph install (register / compact / adoption) -----------------

    /// Installs a container for graph `name` at `version` as one atomic
    /// multi-file transition: container + empty-overlay sidecar at
    /// `version` + manifest entry. `write` streams the container into
    /// the (buffered) staging file — typically via
    /// `tdfs_graph::write_container`.
    ///
    /// After a crash anywhere inside this call, [`DiskCatalog::open`]
    /// recovers to exactly the pre-state (crash before the container
    /// rename committed) or the post-state (after), never a mix.
    pub fn install_graph(
        &self,
        name: &str,
        version: GraphVersion,
        write: impl FnOnce(&mut dyn WriteSeek) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        validate_name(name)?;
        let final_path = self.graph_path(name);
        let tmp = self.staging_path(final_path.file_name().unwrap());
        {
            let mut f = self.vfs.create(&tmp)?;
            // The container writer emits many tiny writes (one per
            // varint); buffering keeps the recorded op log — and the
            // crash-point sweep over it — tractable.
            let mut buffered = BufWriter::with_capacity(16 << 10, &mut *f);
            write(&mut buffered)?;
            buffered
                .into_inner()
                .map_err(|e| StorageError::Io(e.to_string()))?;
            crate::chaos_point!("catalog.install.midfile");
            f.sync_all()?;
        }
        let fingerprint = container_fingerprint(&tmp)?
            .ok_or_else(|| StorageError::Io("staged container vanished".to_owned()))?;
        let _guard = self.lock_journal();
        self.set_journal(&Intent::InstallGraph {
            name: name.to_owned(),
            version,
            container_len: fingerprint.0,
            header_crc: fingerprint.1,
        })?;
        // Commit point: after this rename is durable, recovery rolls
        // forward; before it, recovery rolls back.
        self.vfs.rename(&tmp, &final_path)?;
        self.vfs.sync_dir(final_path.parent().unwrap())?;
        crate::chaos_point!("catalog.install.postrename");
        self.write_delta_raw(
            name,
            &PersistedDelta {
                version,
                ..PersistedDelta::default()
            },
        )?;
        let mut names = self.read_manifest()?;
        if !names.iter().any(|n| n == name) {
            names.push(name.to_owned());
            self.write_manifest(&names)?;
        }
        self.clear_journal()
    }

    // -- manifest ------------------------------------------------------

    /// Replaces the manifest with `names` (atomic).
    pub fn write_manifest(&self, names: &[String]) -> Result<(), StorageError> {
        let mut w = Writer::record(MANIFEST_MAGIC, DISK_VERSION);
        w.u32(names.len() as u32);
        for name in names {
            validate_name(name)?;
            w.str16(name);
        }
        self.write_atomic(&self.manifest_path(), &w.seal())
    }

    /// Reads the registered graph names back (sorted as written).
    pub fn read_manifest(&self) -> Result<Vec<String>, StorageError> {
        let mut bytes = Vec::new();
        File::open(self.manifest_path())
            .map_err(|_| StorageError::Manifest("missing"))?
            .read_to_end(&mut bytes)?;
        let read = || {
            let mut r = Reader::unseal(&bytes, MANIFEST_MAGIC, DISK_VERSION)?;
            let count = r.u32()?;
            let names = r.list(count.into(), 2, read_name)?;
            r.done()?;
            Ok(names)
        };
        read().map_err(|e: DecodeError| StorageError::Manifest(e.reason()))
    }

    // -- delta sidecar -------------------------------------------------

    /// Persists `delta` for graph `name`, journaled. Written on every
    /// committed batch; an empty overlay still records the version.
    pub fn write_delta(&self, name: &str, delta: &PersistedDelta) -> Result<(), StorageError> {
        validate_name(name)?;
        let _guard = self.lock_journal();
        self.set_journal(&Intent::ApplyDelta {
            name: name.to_owned(),
            version: delta.version,
        })?;
        self.write_delta_raw(name, delta)?;
        self.clear_journal()
    }

    /// The bare atomic sidecar write (no journaling) — used inside
    /// journaled transitions and by recovery/fsck repair.
    pub(crate) fn write_delta_raw(
        &self,
        name: &str,
        delta: &PersistedDelta,
    ) -> Result<(), StorageError> {
        validate_name(name)?;
        self.write_atomic(&self.delta_path(name), &delta.encode())
    }

    /// Reads graph `name`'s sidecar; `Ok(None)` when absent (a graph
    /// persisted at version 0 and never mutated).
    pub fn read_delta(&self, name: &str) -> Result<Option<PersistedDelta>, StorageError> {
        let path = self.delta_path(name);
        if !path.exists() {
            return Ok(None);
        }
        let bytes = std::fs::read(&path)?;
        PersistedDelta::decode(&bytes)
            .map(Some)
            .map_err(|e| StorageError::Delta {
                graph: name.to_owned(),
                reason: e.reason(),
            })
    }

    // -- snapshots -----------------------------------------------------

    /// Persists a suspended query's snapshot bytes under `id`,
    /// journaled.
    pub fn write_snapshot(&self, id: u64, bytes: &[u8]) -> Result<(), StorageError> {
        let _guard = self.lock_journal();
        self.set_journal(&Intent::PutSnapshot { id })?;
        self.write_atomic(&self.snapshot_path(id), bytes)?;
        self.clear_journal()
    }

    /// Removes a persisted snapshot (consumed on successful resume),
    /// journaled and made durable with a directory fsync.
    pub fn remove_snapshot(&self, id: u64) -> Result<(), StorageError> {
        let _guard = self.lock_journal();
        self.set_journal(&Intent::DropSnapshot { id })?;
        self.vfs.remove_file(&self.snapshot_path(id))?;
        self.vfs.sync_dir(&self.root.join("snapshots"))?;
        self.clear_journal()
    }

    /// All persisted snapshots as `(id, bytes)`, sorted by id. Unreadable
    /// entries (non-numeric names, i/o races) are skipped — snapshot
    /// *content* validation happens in the TDFSSNAP decoder at resume.
    pub fn read_snapshots(&self) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let mut out = Vec::new();
        for name in self.vfs.read_dir(&self.root.join("snapshots"))? {
            let path = self.root.join("snapshots").join(&name);
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_suffix(".tdfssnap"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            let mut bytes = Vec::new();
            if File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .is_ok()
            {
                out.push((id, bytes));
            }
        }
        out.sort_by_key(|(id, _)| *id);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> (tdfs_testkit::TempDir, DiskCatalog) {
        let dir = tdfs_testkit::TempDir::new("tdfs-disk").unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        (dir, cat)
    }

    #[test]
    fn manifest_roundtrip_and_validation() {
        let (_dir, cat) = catalog();
        assert_eq!(cat.read_manifest().unwrap(), Vec::<String>::new());
        let names = vec!["alpha".to_owned(), "g2.v1".to_owned(), "x-y_z".to_owned()];
        cat.write_manifest(&names).unwrap();
        assert_eq!(cat.read_manifest().unwrap(), names);
        assert!(matches!(
            cat.write_manifest(&["bad/name".to_owned()]),
            Err(StorageError::BadName(_))
        ));
        assert!(validate_name(".hidden").is_err());
        assert!(validate_name("").is_err());
        assert!(validate_name(&"x".repeat(200)).is_err());
    }

    #[test]
    fn torn_manifest_is_a_typed_error() {
        let (_dir, cat) = catalog();
        cat.write_manifest(&["g".to_owned()]).unwrap();
        let path = cat.root().join("MANIFEST");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 6;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            cat.read_manifest(),
            Err(StorageError::Manifest("checksum mismatch"))
        ));
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(cat.read_manifest().is_err());
    }

    #[test]
    fn delta_sidecar_roundtrip() {
        let (_dir, cat) = catalog();
        assert_eq!(cat.read_delta("g").unwrap(), None);
        let delta = PersistedDelta {
            version: 7,
            inserts: vec![(0, 3), (1, 2)],
            deletes: vec![(2, 9)],
        };
        cat.write_delta("g", &delta).unwrap();
        assert_eq!(cat.read_delta("g").unwrap(), Some(delta));
        // Empty overlay still records the version (compact graph).
        let compacted = PersistedDelta {
            version: 9,
            ..Default::default()
        };
        cat.write_delta("g", &compacted).unwrap();
        assert_eq!(cat.read_delta("g").unwrap(), Some(compacted));
        // A completed journaled write leaves no journal behind.
        assert_eq!(cat.read_journal().unwrap(), None);
        // Corruption: flip a payload byte.
        let path = cat.delta_path("g");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            cat.read_delta("g"),
            Err(StorageError::Delta { .. })
        ));
    }

    #[test]
    fn snapshots_roundtrip_and_consume() {
        let (_dir, cat) = catalog();
        assert!(cat.read_snapshots().unwrap().is_empty());
        cat.write_snapshot(3, b"ccc").unwrap();
        cat.write_snapshot(1, b"a").unwrap();
        let snaps = cat.read_snapshots().unwrap();
        assert_eq!(
            snaps,
            vec![(1, b"a".to_vec()), (3, b"ccc".to_vec())],
            "sorted by id"
        );
        cat.remove_snapshot(1).unwrap();
        cat.remove_snapshot(1).unwrap(); // idempotent
        assert_eq!(cat.read_snapshots().unwrap().len(), 1);
    }

    #[test]
    fn reopen_clears_staging_leftovers() {
        let (dir, cat) = catalog();
        std::fs::write(cat.root().join("tmp").join("MANIFEST.9"), b"torn garbage").unwrap();
        let cat = DiskCatalog::open(dir.path()).unwrap();
        assert!(std::fs::read_dir(cat.root().join("tmp"))
            .unwrap()
            .next()
            .is_none());
        assert_eq!(cat.read_manifest().unwrap(), Vec::<String>::new());
    }

    #[test]
    fn staging_names_are_unique_per_write() {
        let (_dir, cat) = catalog();
        let a = cat.staging_path(std::ffi::OsStr::new("MANIFEST"));
        let b = cat.staging_path(std::ffi::OsStr::new("MANIFEST"));
        assert_ne!(a, b, "two writes to one target never share staging");
    }

    #[test]
    fn intent_journal_roundtrips_all_variants() {
        let (_dir, cat) = catalog();
        assert_eq!(cat.read_journal().unwrap(), None);
        let intents = [
            Intent::InstallGraph {
                name: "g".to_owned(),
                version: 3,
                container_len: 1234,
                header_crc: 0xDEAD_BEEF,
            },
            Intent::ApplyDelta {
                name: "g".to_owned(),
                version: 4,
            },
            Intent::PutSnapshot { id: 17 },
            Intent::DropSnapshot { id: 17 },
        ];
        for intent in intents {
            cat.set_journal(&intent).unwrap();
            assert_eq!(cat.read_journal().unwrap(), Some(intent));
        }
        cat.clear_journal().unwrap();
        assert_eq!(cat.read_journal().unwrap(), None);
        // A torn journal is a typed error, not a guess.
        std::fs::write(cat.journal_path(), b"TDFSJRNLgarbage").unwrap();
        assert!(matches!(cat.read_journal(), Err(StorageError::Journal(_))));
    }

    #[test]
    fn stale_uncommitted_install_intent_rolls_back() {
        let (dir, cat) = catalog();
        cat.set_journal(&Intent::InstallGraph {
            name: "ghost".to_owned(),
            version: 1,
            container_len: 99,
            header_crc: 7,
        })
        .unwrap();
        drop(cat);
        let cat = DiskCatalog::open(dir.path()).unwrap();
        assert!(matches!(cat.recovery(), Recovery::RolledBack(_)));
        assert_eq!(cat.read_journal().unwrap(), None);
        assert!(cat.read_manifest().unwrap().is_empty(), "no ghost entry");
        assert!(!cat.graph_path("ghost").exists());
    }

    #[test]
    fn committed_install_intent_rolls_forward() {
        let (dir, cat) = catalog();
        // Fake a committed install: container present + matching
        // fingerprint, but sidecar/manifest/journal not yet finalized —
        // exactly the state after a crash at `catalog.install.postrename`.
        let mut container = vec![0u8; 96];
        container[80..84].copy_from_slice(&0xABCD_1234u32.to_le_bytes());
        std::fs::write(cat.graph_path("g"), &container).unwrap();
        cat.set_journal(&Intent::InstallGraph {
            name: "g".to_owned(),
            version: 5,
            container_len: 96,
            header_crc: 0xABCD_1234,
        })
        .unwrap();
        drop(cat);
        let cat = DiskCatalog::open(dir.path()).unwrap();
        assert!(matches!(cat.recovery(), Recovery::RolledForward(_)));
        assert_eq!(cat.read_manifest().unwrap(), vec!["g".to_owned()]);
        let delta = cat.read_delta("g").unwrap().unwrap();
        assert_eq!(delta.version, 5);
        assert!(delta.inserts.is_empty() && delta.deletes.is_empty());
        assert_eq!(cat.read_journal().unwrap(), None);
    }

    /// Pins the exact `JOURNAL` bytes of every intent tag. If this fails
    /// the on-disk format changed: bump [`DISK_VERSION`], keep a decoder
    /// for the old version, and re-pin.
    #[test]
    fn golden_journal_every_intent() {
        let record = |tag: u8, fields: &[u8], crc: [u8; 4]| {
            let mut golden = b"TDFSJRNL".to_vec();
            golden.extend_from_slice(&[0x01, 0x00, tag]); // disk version 1, tag
            golden.extend_from_slice(fields);
            golden.extend_from_slice(&crc);
            golden
        };
        let cases = [
            (
                Intent::InstallGraph {
                    name: "g".to_owned(),
                    version: 3,
                    container_len: 1234,
                    header_crc: 0xDEAD_BEEF,
                },
                record(
                    1,
                    &[
                        0x01, 0x00, b'g', // name: len 1, "g"
                        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version 3
                        0xd2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // container_len 1234
                        0xef, 0xbe, 0xad, 0xde, // header_crc
                    ],
                    [0xb2, 0x43, 0x16, 0xcd],
                ),
            ),
            (
                Intent::ApplyDelta {
                    name: "g".to_owned(),
                    version: 4,
                },
                record(
                    2,
                    &[
                        0x01, 0x00, b'g', // name: len 1, "g"
                        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version 4
                    ],
                    [0xb3, 0x27, 0xcd, 0x86],
                ),
            ),
            (
                Intent::PutSnapshot { id: 17 },
                record(
                    3,
                    &[0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
                    [0x22, 0xa6, 0x6d, 0x96],
                ),
            ),
            (
                Intent::DropSnapshot { id: 17 },
                record(
                    4,
                    &[0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
                    [0xeb, 0xcb, 0x0c, 0xf2],
                ),
            ),
        ];
        for (intent, golden) in cases {
            assert_eq!(intent.encode(), golden, "{intent:?}");
            assert_eq!(Intent::decode(&golden).unwrap(), intent);
        }
    }

    /// Pins the exact `MANIFEST` bytes.
    #[test]
    fn golden_manifest() {
        let (_dir, cat) = catalog();
        let names = vec!["alpha".to_owned(), "g2".to_owned()];
        cat.write_manifest(&names).unwrap();
        let golden: Vec<u8> = vec![
            // magic "TDFSCATL", disk version 1
            0x54, 0x44, 0x46, 0x53, 0x43, 0x41, 0x54, 0x4c, 0x01, 0x00, //
            // 2 names: len 5 "alpha", len 2 "g2"
            0x02, 0x00, 0x00, 0x00, //
            0x05, 0x00, b'a', b'l', b'p', b'h', b'a', 0x02, 0x00, b'g', b'2', //
            // CRC-32 trailer
            0x64, 0x25, 0xb1, 0xb4,
        ];
        assert_eq!(std::fs::read(cat.root().join("MANIFEST")).unwrap(), golden);
        assert_eq!(cat.read_manifest().unwrap(), names);
    }

    /// Pins the exact `DELTA` sidecar bytes.
    #[test]
    fn golden_delta_sidecar() {
        let (_dir, cat) = catalog();
        let delta = PersistedDelta {
            version: 7,
            inserts: vec![(0, 3), (1, 2)],
            deletes: vec![(2, 9)],
        };
        cat.write_delta("g", &delta).unwrap();
        let golden: Vec<u8> = vec![
            // magic "TDFSDELT", disk version 1
            0x54, 0x44, 0x46, 0x53, 0x44, 0x45, 0x4c, 0x54, 0x01, 0x00, //
            // graph version 7, 2 inserts, 1 delete
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            // inserts (0,3) (1,2), delete (2,9)
            0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, //
            0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, //
            0x02, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, //
            // CRC-32 trailer
            0x0d, 0x9e, 0xbe, 0x04,
        ];
        assert_eq!(std::fs::read(cat.delta_path("g")).unwrap(), golden);
        assert_eq!(cat.read_delta("g").unwrap(), Some(delta));
    }

    /// A sidecar with a valid CRC whose insert count is 2^61 is a typed
    /// error: the count cannot fit the bytes that follow it.
    #[test]
    fn sidecar_with_a_huge_edge_count_is_a_typed_error() {
        use tdfs_graph::container::crc32;
        let (_dir, cat) = catalog();
        cat.write_delta("g", &PersistedDelta::default()).unwrap();
        let path = cat.delta_path("g");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[18..26].copy_from_slice(&(1u64 << 61).to_le_bytes()); // insert count
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            cat.read_delta("g"),
            Err(StorageError::Delta { .. })
        ));
    }

    #[test]
    fn interrupted_snapshot_drop_is_rerun() {
        let (dir, cat) = catalog();
        cat.write_snapshot(9, b"snap").unwrap();
        // Crash after journaling the drop but before the removal.
        cat.set_journal(&Intent::DropSnapshot { id: 9 }).unwrap();
        drop(cat);
        let cat = DiskCatalog::open(dir.path()).unwrap();
        assert!(matches!(cat.recovery(), Recovery::RolledForward(_)));
        assert!(cat.read_snapshots().unwrap().is_empty());
        assert_eq!(cat.read_journal().unwrap(), None);
    }
}
