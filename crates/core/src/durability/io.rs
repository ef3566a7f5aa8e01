//! Injectable byte storage: the durability analogue of the
//! [`Clock`](crate::Clock) pattern.
//!
//! The checkpoint and WAL code talk to a [`StorageIo`] trait object, so
//! the same recovery logic runs against a real directory ([`RealIo`]),
//! an in-memory map ([`MemIo`] — fast, deterministic tests), or a
//! fault-injecting wrapper ([`FaultIo`] — torn appends and
//! crash-at-byte-`k` on a seeded schedule). Because [`MemIo`] handles
//! share their backing store on [`Clone`], a test can keep one handle,
//! wrap another in [`FaultIo`], crash the writer, and then recover from
//! the surviving bytes exactly as a restarted process would from disk.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A minimal named-file byte store, injectable like
/// [`Clock`](crate::Clock): the durability code never touches the
/// filesystem directly, so tests control every byte that "reaches
/// disk" — including the bytes that *don't* when a fault fires.
pub trait StorageIo: fmt::Debug + Send + Sync {
    /// Reads the full contents of `name`, or `None` if it does not
    /// exist.
    ///
    /// # Errors
    ///
    /// Any underlying I/O error (absence is `Ok(None)`, not an error).
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Replaces `name` with `bytes` atomically: after a crash the file
    /// holds either the old contents or the new, never a mixture. Calls
    /// that have returned are durable in the order they returned: a
    /// crash never keeps a later replacement and loses an earlier one
    /// (a checkpoint save rewrites the log only after its image call
    /// returned, and relies on this).
    ///
    /// # Errors
    ///
    /// Any underlying I/O error; on error the old contents survive.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to `name`, creating it empty first if absent.
    ///
    /// # Errors
    ///
    /// Any underlying I/O error. A failed append may leave a *prefix*
    /// of `bytes` durable (a torn write) — the WAL's record framing is
    /// what makes that detectable.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Shortens `name` to `len` bytes (no-op if already shorter).
    ///
    /// # Errors
    ///
    /// Any underlying I/O error, including the file not existing.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;
}

/// Directory-backed [`StorageIo`]: the production implementation used
/// by `mis_serve --checkpoint-dir`. Writes are fsynced; whole-file
/// replacement goes through a temp file + rename so a crash mid-write
/// never corrupts the previous image, and on Unix the directory is
/// fsynced after the rename, so the replacement is durable before the
/// call returns.
#[derive(Debug, Clone)]
pub struct RealIo {
    dir: PathBuf,
}

impl RealIo {
    /// Opens (creating if needed) `dir` as the backing directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RealIo { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl StorageIo for RealIo {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.path(name))?;
        sync_dir(&self.dir)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))?;
        f.set_len(len)
    }
}

/// Makes a rename inside `dir` durable: the new name lives in the
/// directory's entries, which the file's own `sync_all` does not cover.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Elsewhere a directory cannot be opened as a file to sync it.
#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// In-memory [`StorageIo`] for tests. [`Clone`] *shares* the backing
/// store (two handles see the same files — the crash-drill pattern);
/// [`MemIo::fork`] deep-copies it (an independent store, e.g. a twin's).
#[derive(Debug, Clone, Default)]
pub struct MemIo {
    files: Arc<Mutex<HashMap<String, Vec<u8>>>>,
}

impl MemIo {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An independent deep copy of the current contents.
    #[must_use]
    pub fn fork(&self) -> Self {
        let files = self.files.lock().expect("MemIo lock poisoned").clone();
        MemIo {
            files: Arc::new(Mutex::new(files)),
        }
    }

    /// Current length of `name` in bytes, or `None` if absent.
    #[must_use]
    pub fn file_len(&self, name: &str) -> Option<usize> {
        self.files
            .lock()
            .expect("MemIo lock poisoned")
            .get(name)
            .map(Vec::len)
    }

    /// XORs `mask` into the byte at `offset` of `name` — a targeted bit
    /// flip for corruption tests. Returns `false` if the file is absent
    /// or shorter than `offset`.
    pub fn corrupt(&self, name: &str, offset: usize, mask: u8) -> bool {
        let mut files = self.files.lock().expect("MemIo lock poisoned");
        match files.get_mut(name) {
            Some(bytes) if offset < bytes.len() => {
                bytes[offset] ^= mask;
                true
            }
            _ => false,
        }
    }

    /// Truncates `name` to `len` bytes without going through the trait —
    /// simulates a torn tail regardless of record framing. Returns
    /// `false` if the file is absent.
    pub fn chop(&self, name: &str, len: usize) -> bool {
        let mut files = self.files.lock().expect("MemIo lock poisoned");
        match files.get_mut(name) {
            Some(bytes) => {
                bytes.truncate(len);
                true
            }
            None => false,
        }
    }
}

impl StorageIo for MemIo {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self
            .files
            .lock()
            .expect("MemIo lock poisoned")
            .get(name)
            .cloned())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .expect("MemIo lock poisoned")
            .insert(name.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .expect("MemIo lock poisoned")
            .entry(name.to_owned())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().expect("MemIo lock poisoned");
        match files.get_mut(name) {
            Some(bytes) => {
                bytes.truncate(usize::try_from(len).unwrap_or(usize::MAX));
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {name}"),
            )),
        }
    }
}

fn injected_crash() -> io::Error {
    io::Error::other("injected crash: write budget exhausted")
}

/// Fault-injecting [`StorageIo`]: forwards to an inner [`MemIo`] until
/// a byte budget runs out, then "crashes" — the budget-exceeding append
/// lands only a *prefix* (a torn write), and every later operation
/// fails persistently, exactly as if the process had died. Recovery
/// tests then reopen the surviving inner store through a retained
/// [`MemIo`] clone.
///
/// Deriving the budget from a seed (e.g. [`splitmix64`](super::splitmix64)
/// modulo the log length) sweeps the crash point across record
/// boundaries and record interiors deterministically.
#[derive(Debug)]
pub struct FaultIo {
    inner: MemIo,
    state: Mutex<FaultState>,
}

#[derive(Debug)]
struct FaultState {
    budget: u64,
    crashed: bool,
}

impl FaultIo {
    /// Wraps `inner`, allowing exactly `budget` more bytes of durable
    /// writes before the simulated crash.
    #[must_use]
    pub fn crash_after(inner: MemIo, budget: u64) -> Self {
        FaultIo {
            inner,
            state: Mutex::new(FaultState {
                budget,
                crashed: false,
            }),
        }
    }

    /// `true` once the budget has been exhausted and the simulated
    /// process is dead.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("FaultIo lock poisoned").crashed
    }
}

impl StorageIo for FaultIo {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        if self.crashed() {
            return Err(injected_crash());
        }
        self.inner.read(name)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().expect("FaultIo lock poisoned");
        if state.crashed {
            return Err(injected_crash());
        }
        let len = bytes.len() as u64;
        if state.budget < len {
            // Atomic replacement mid-crash: the *old* contents survive
            // intact — nothing of the new image lands.
            state.crashed = true;
            state.budget = 0;
            return Err(injected_crash());
        }
        state.budget -= len;
        self.inner.write_atomic(name, bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().expect("FaultIo lock poisoned");
        if state.crashed {
            return Err(injected_crash());
        }
        let len = bytes.len() as u64;
        if state.budget < len {
            // Torn write: only the prefix that fit the budget becomes
            // durable, then the process dies.
            let keep = usize::try_from(state.budget).expect("budget below len fits usize");
            self.inner
                .append(name, &bytes[..keep])
                .expect("MemIo append is infallible");
            state.crashed = true;
            state.budget = 0;
            return Err(injected_crash());
        }
        state.budget -= len;
        self.inner.append(name, bytes)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        if self.crashed() {
            return Err(injected_crash());
        }
        self.inner.truncate(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_io_round_trips_and_clone_shares() {
        let io = MemIo::new();
        assert_eq!(io.read("a").unwrap(), None);
        io.write_atomic("a", b"hello").unwrap();
        io.append("a", b" world").unwrap();
        assert_eq!(io.read("a").unwrap().unwrap(), b"hello world");

        let alias = io.clone();
        alias.truncate("a", 5).unwrap();
        assert_eq!(io.read("a").unwrap().unwrap(), b"hello");

        let fork = io.fork();
        fork.append("a", b"!").unwrap();
        assert_eq!(io.read("a").unwrap().unwrap(), b"hello");
        assert_eq!(fork.read("a").unwrap().unwrap(), b"hello!");
    }

    #[test]
    fn mem_io_corruption_helpers() {
        let io = MemIo::new();
        io.write_atomic("f", &[0x00, 0xFF]).unwrap();
        assert!(io.corrupt("f", 1, 0x01));
        assert_eq!(io.read("f").unwrap().unwrap(), vec![0x00, 0xFE]);
        assert!(!io.corrupt("f", 9, 0x01));
        assert!(io.chop("f", 1));
        assert_eq!(io.file_len("f"), Some(1));
        assert!(io.truncate("missing", 0).is_err());
    }

    #[test]
    fn fault_io_tears_the_over_budget_append_and_stays_dead() {
        let store = MemIo::new();
        let io = FaultIo::crash_after(store.clone(), 10);
        io.append("wal", b"12345678").unwrap(); // 8 of 10 spent
        let err = io.append("wal", b"abcdef").unwrap_err();
        assert_eq!(err.to_string(), injected_crash().to_string());
        assert!(io.crashed());
        // Torn: exactly the 2 budgeted bytes of the failed append landed.
        assert_eq!(store.read("wal").unwrap().unwrap(), b"12345678ab");
        // Dead is dead: every later operation fails.
        assert!(io.read("wal").is_err());
        assert!(io.append("wal", b"x").is_err());
        assert!(io.write_atomic("ckp", b"y").is_err());
        assert_eq!(store.read("wal").unwrap().unwrap(), b"12345678ab");
    }

    #[test]
    fn fault_io_atomic_write_crash_preserves_the_old_image() {
        let store = MemIo::new();
        store.write_atomic("ckp", b"old").unwrap();
        let io = FaultIo::crash_after(store.clone(), 2);
        assert!(io.write_atomic("ckp", b"new-image").is_err());
        assert_eq!(store.read("ckp").unwrap().unwrap(), b"old");
    }

    #[test]
    fn real_io_round_trips_in_a_temp_dir() {
        let dir = std::env::temp_dir().join(format!(
            "dmis-io-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let io = RealIo::new(&dir).unwrap();
        assert_eq!(io.read("f").unwrap(), None);
        io.write_atomic("f", b"alpha").unwrap();
        io.append("f", b"beta").unwrap();
        assert_eq!(io.read("f").unwrap().unwrap(), b"alphabeta");
        io.truncate("f", 5).unwrap();
        assert_eq!(io.read("f").unwrap().unwrap(), b"alpha");
        io.write_atomic("f", b"gamma").unwrap();
        assert_eq!(io.read("f").unwrap().unwrap(), b"gamma");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
