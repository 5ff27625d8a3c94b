//! Versioned, std-only checkpoint format for DMC campaigns.
//!
//! A checkpoint file is a single *frame*:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"QMCCKPT\0"
//! 8       4     format version (little-endian u32, currently 1)
//! 12      8     payload length in bytes (little-endian u64)
//! 20      n     payload (opaque to this layer)
//! 20+n    4     CRC-32 (IEEE) over bytes [0, 20+n)
//! ```
//!
//! All integers are little-endian; `f64`s travel as their IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so a round-trip is *bit-exact* —
//! the property the campaign resume-equivalence suite depends on.
//!
//! [`CheckpointStore`] manages a directory of per-generation frames with
//! crash-safe durability:
//!
//! * writes go to a `.tmp` sibling first and are published with an
//!   atomic `rename`, so a crash mid-write never replaces a good file;
//! * [`CheckpointStore::latest_valid`] scans generations newest-first
//!   and returns the first frame whose CRC verifies, silently skipping
//!   torn or corrupt files — the "last good fallback" of the recovery
//!   story;
//! * fault injection (torn writes, bit flips — see
//!   [`super::CampaignFaultPlan`]) mangles the frame *after* framing,
//!   exactly like a misbehaving disk would.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use super::fault::CampaignFaultPlan;

/// Frame magic: identifies a campaign checkpoint file.
pub const MAGIC: [u8; 8] = *b"QMCCKPT\0";
/// Current checkpoint format version.
pub const VERSION: u32 = 1;

/// Why a checkpoint failed to load or store.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem error.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// CRC mismatch: torn write or corruption.
    BadCrc {
        /// CRC stored in the frame trailer.
        stored: u32,
        /// CRC recomputed over the frame body.
        computed: u32,
    },
    /// The file ends before the declared frame does.
    Truncated,
    /// Structurally invalid payload (decoder context in the message).
    Malformed(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a campaign checkpoint (bad magic)"),
            CkptError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CkptError::BadCrc { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::Malformed(what) => write!(f, "malformed checkpoint payload: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), std-only.
///
/// Bitwise implementation — checkpoints are a few KiB, so table-driven
/// speed buys nothing here.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Sequential payload decoder; every accessor checks bounds and returns
/// [`CkptError::Truncated`] instead of panicking on short input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Next `u64` narrowed to `usize`.
    pub fn len_u64(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.u64()?).map_err(|_| CkptError::Malformed("length overflows usize"))
    }

    /// Next `u64` item count, bounded by what the unread bytes could
    /// encode at `item_bytes` per item (a zero-byte item counts as one).
    /// Decoders size allocations from this count, so a hostile length
    /// is [`CkptError::Malformed`] instead of an allocation abort.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, CkptError> {
        let n = self.len_u64()?;
        if n > self.remaining() / item_bytes.max(1) {
            return Err(CkptError::Malformed("count exceeds the remaining bytes"));
        }
        Ok(n)
    }

    /// Next `f64` (from its bit pattern).
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Wrap `payload` in a framed checkpoint (magic + version + length +
/// payload + CRC).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Validate a framed checkpoint and return its payload slice.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], CkptError> {
    if bytes.len() < MAGIC.len() {
        return Err(CkptError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let mut r = Reader::new(&bytes[MAGIC.len()..]);
    let version = r.u32()?;
    if version != VERSION {
        return Err(CkptError::BadVersion(version));
    }
    let payload_len = r.len_u64()?;
    let header = MAGIC.len() + 12;
    let framed = header
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(4))
        .ok_or(CkptError::Malformed("frame length overflows"))?;
    if bytes.len() < framed {
        return Err(CkptError::Truncated);
    }
    let body = &bytes[..header + payload_len];
    let stored = u32::from_le_bytes(
        bytes[header + payload_len..framed]
            .try_into()
            .expect("4 trailer bytes"),
    );
    let computed = crc32(body);
    if stored != computed {
        return Err(CkptError::BadCrc { stored, computed });
    }
    Ok(&bytes[header..header + payload_len])
}

/// A directory of per-generation checkpoint frames with atomic publish
/// and newest-valid-first recovery.
pub struct CheckpointStore {
    dir: PathBuf,
    writes: usize,
}

const FILE_PREFIX: &str = "ckpt-";
const FILE_SUFFIX: &str = ".qmc";

impl CheckpointStore {
    /// Open (creating if needed) the checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, writes: 0 })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of `write` calls so far (the fault plan's write index).
    pub fn writes(&self) -> usize {
        self.writes
    }

    fn path_for(&self, generation: u64) -> PathBuf {
        self.dir
            .join(format!("{FILE_PREFIX}{generation:010}{FILE_SUFFIX}"))
    }

    /// Frame `payload` and publish it as the checkpoint for
    /// `generation`: write to a `.tmp` sibling, flush, then atomically
    /// rename into place. `faults` may mangle the persisted bytes
    /// (torn write / bit flip) to emulate storage failures — the
    /// mangled frame is what lands on disk, exactly as a real fault
    /// would leave it.
    pub fn write(
        &mut self,
        generation: u64,
        payload: &[u8],
        faults: &CampaignFaultPlan,
    ) -> Result<PathBuf, CkptError> {
        let bytes = faults.mangle(self.writes, frame(payload));
        self.writes += 1;
        let path = self.path_for(generation);
        let tmp = path.with_extension("qmc.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// All published checkpoint generations, ascending. Temp files and
    /// foreign names are ignored.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix(FILE_PREFIX)
                .and_then(|s| s.strip_suffix(FILE_SUFFIX))
            else {
                continue;
            };
            if let Ok(generation) = stem.parse::<u64>() {
                out.push((generation, entry.path()));
            }
        }
        out.sort_by_key(|&(g, _)| g);
        Ok(out)
    }

    /// The newest checkpoint whose frame validates, as
    /// `(generation, payload)`. Torn or corrupt frames (bad magic, bad
    /// CRC, truncation) are skipped — the scan falls back to the last
    /// good one. `None` if no valid checkpoint exists.
    pub fn latest_valid(&self) -> Result<Option<(u64, Vec<u8>)>, CkptError> {
        let mut files = self.list()?;
        files.reverse();
        for (generation, path) in files {
            let bytes = fs::read(&path)?;
            if let Ok(payload) = unframe(&bytes) {
                return Ok(Some((generation, payload.to_vec())));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "qmc-ckpt-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_bit_exact() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 42);
        put_f64(&mut payload, -0.1f64);
        put_f64(&mut payload, f64::MIN_POSITIVE);
        let framed = frame(&payload);
        let back = unframe(&framed).expect("valid frame");
        assert_eq!(back, &payload[..]);
        let mut r = Reader::new(back);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn unframe_rejects_damage() {
        let framed = frame(b"some campaign payload");
        // Truncation at every boundary inside the frame.
        for keep in [0, 4, 11, 19, framed.len() - 1] {
            assert!(
                matches!(
                    unframe(&framed[..keep]),
                    Err(CkptError::Truncated) | Err(CkptError::BadCrc { .. })
                ),
                "keep={keep}"
            );
        }
        // A flipped bit anywhere breaks either magic, version, length,
        // payload CRC, or the stored CRC itself.
        for byte in [0, 9, 15, 25, framed.len() - 1] {
            let mut bad = framed.clone();
            bad[byte] ^= 0x10;
            assert!(unframe(&bad).is_err(), "byte={byte}");
        }
        // Version from the future.
        let mut future = framed.clone();
        future[8] = 0xEE;
        assert!(matches!(
            unframe(&future),
            Err(CkptError::BadVersion(_)) | Err(CkptError::BadCrc { .. })
        ));
    }

    #[test]
    fn store_publishes_atomically_and_scans_newest_valid() {
        let dir = tmpdir("scan");
        let mut store = CheckpointStore::new(&dir).unwrap();
        let plan = CampaignFaultPlan::default();
        store.write(1, b"gen one", &plan).unwrap();
        store.write(2, b"gen two", &plan).unwrap();
        store.write(3, b"gen three", &plan).unwrap();
        // A stray temp file and a foreign file must be ignored.
        fs::write(dir.join("ckpt-0000000009.qmc.tmp"), b"garbage").unwrap();
        fs::write(dir.join("notes.txt"), b"unrelated").unwrap();
        let (generation, payload) = store.latest_valid().unwrap().expect("some");
        assert_eq!((generation, payload.as_slice()), (3, &b"gen three"[..]));
        assert_eq!(
            store.list().unwrap().iter().map(|x| x.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Corrupt the newest on disk: the scan falls back to gen 2.
        let newest = dir.join("ckpt-0000000003.qmc");
        let mut bytes = fs::read(&newest).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&newest, &bytes).unwrap();
        let (generation, payload) = store.latest_valid().unwrap().expect("fallback");
        assert_eq!((generation, payload.as_slice()), (2, &b"gen two"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_reports_truncation_not_panic() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(r.u64(), Err(CkptError::Truncated)));
        // Position is unchanged after a failed read.
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn reader_count_is_bounded_by_remaining_bytes() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        put_f64(&mut buf, 1.0);
        put_f64(&mut buf, 2.0);
        assert_eq!(Reader::new(&buf).count(8).unwrap(), 2);
        assert!(matches!(
            Reader::new(&buf).count(9),
            Err(CkptError::Malformed(_))
        ));
        for hostile in [u64::MAX, 1 << 58] {
            let mut bad = hostile.to_le_bytes().to_vec();
            bad.extend_from_slice(&buf[8..]);
            assert!(matches!(
                Reader::new(&bad).count(0),
                Err(CkptError::Malformed(_))
            ));
        }
    }
}
