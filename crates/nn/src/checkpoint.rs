//! Model checkpointing: save/load the packed parameter arena.
//!
//! A minimal self-describing binary format (magic, segment registry, raw
//! little-endian `f32` payload, then an FNV-1a 64 checksum of every byte
//! before it). Because the whole model lives in one contiguous arena
//! (§5.2), a checkpoint is one header plus one flat write — the same
//! property that makes it one network message.
//!
//! Loading is all-or-nothing: the header is checked against the model,
//! the body is read into a buffer sized from the checked element count,
//! and the checksum is verified — only then is the arena written. A
//! truncated, padded or corrupted file is a typed error and leaves the
//! model as it was.

use crate::network::Network;
use easgd_tensor::ParamArena;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"EASGDCP2";

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure, including a file that ends early.
    Io(io::Error),
    /// The file is not a valid checkpoint, does not match the model, or
    /// fails its checksum.
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64 over the bytes passing through a reader or writer.
struct Fnv<T> {
    inner: T,
    hash: u64,
}

impl<T> Fnv<T> {
    fn new(inner: T) -> Self {
        Self {
            inner,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl<W: Write> Write for Fnv<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.absorb(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<R: Read> Read for Fnv<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.absorb(&buf[..n]);
        Ok(n)
    }
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64(r: &mut impl Read) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// Reads a length-prefixed string that must be `want`: a length other
/// than `want`'s is refused before anything is allocated for it.
fn read_str_matching(r: &mut impl Read, want: &str) -> Result<(), CheckpointError> {
    let len = read_u64(r)?;
    if len != want.len() as u64 {
        return Err(CheckpointError::Format(format!(
            "segment name of {len} bytes where the model has {want:?}"
        )));
    }
    let mut buf = vec![0u8; want.len()];
    r.read_exact(&mut buf)?;
    if buf != want.as_bytes() {
        return Err(CheckpointError::Format(format!(
            "segment {:?} where the model has {want:?}",
            String::from_utf8_lossy(&buf)
        )));
    }
    Ok(())
}

/// Writes an arena (names, offsets, data, checksum) to `path`.
pub fn save_arena(arena: &ParamArena, path: &Path) -> Result<(), CheckpointError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_arena(arena, &mut w)?;
    w.flush()?;
    Ok(())
}

fn write_arena(arena: &ParamArena, w: &mut impl Write) -> io::Result<()> {
    let mut w = Fnv::new(w);
    w.write_all(MAGIC)?;
    write_u64(&mut w, arena.segments().len() as u64)?;
    for seg in arena.segments() {
        write_str(&mut w, &seg.name)?;
        write_u64(&mut w, seg.offset as u64)?;
        write_u64(&mut w, seg.len as u64)?;
    }
    write_u64(&mut w, arena.len() as u64)?;
    for &v in arena.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    let sum = w.hash;
    write_u64(&mut w.inner, sum)
}

/// Loads a checkpoint into an existing arena. The segment registry must
/// match exactly (names, offsets, lengths) — loading a LeNet checkpoint
/// into an AlexNet is an error, not a silent corruption — and the
/// checksum must hold. On any error the arena is unchanged.
pub fn load_arena(arena: &mut ParamArena, path: &Path) -> Result<(), CheckpointError> {
    read_arena(arena, &mut BufReader::new(File::open(path)?))
}

fn read_arena(arena: &mut ParamArena, r: &mut impl Read) -> Result<(), CheckpointError> {
    let mut r = Fnv::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let nseg = read_u64(&mut r)?;
    if nseg != arena.segments().len() as u64 {
        return Err(CheckpointError::Format(format!(
            "segment count {} != model's {}",
            nseg,
            arena.segments().len()
        )));
    }
    for seg in arena.segments() {
        read_str_matching(&mut r, &seg.name)?;
        let offset = read_u64(&mut r)?;
        let len = read_u64(&mut r)?;
        if (offset, len) != (seg.offset as u64, seg.len as u64) {
            return Err(CheckpointError::Format(format!(
                "segment {} at {offset}+{len} in the file, {}+{} in the model",
                seg.name, seg.offset, seg.len
            )));
        }
    }
    let total = read_u64(&mut r)?;
    if total != arena.len() as u64 {
        return Err(CheckpointError::Format(format!(
            "element count {} != model's {}",
            total,
            arena.len()
        )));
    }
    let mut body = vec![0u8; arena.len() * 4];
    r.read_exact(&mut body)?;
    let computed = r.hash;
    let stored = read_u64(&mut r.inner)?;
    if stored != computed {
        return Err(CheckpointError::Format(format!(
            "checksum {stored:#018x} in the file, {computed:#018x} over its bytes"
        )));
    }
    if r.inner.read(&mut [0u8; 1])? != 0 {
        return Err(CheckpointError::Format("bytes after the checksum".into()));
    }
    for (v, b) in arena.as_mut_slice().iter_mut().zip(body.chunks_exact(4)) {
        *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
    Ok(())
}

/// Saves a network's parameters.
pub fn save_network(net: &Network, path: &Path) -> Result<(), CheckpointError> {
    save_arena(net.params(), path)
}

/// Loads parameters into a network with an identical architecture.
pub fn load_network(net: &mut Network, path: &Path) -> Result<(), CheckpointError> {
    load_arena(net.params_mut(), path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{lenet_tiny, mlp};
    use easgd_tensor::Tensor;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("easgd_checkpoints");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_preserves_weights_exactly() {
        let net = lenet_tiny(1);
        let path = tmp("roundtrip.ckpt");
        save_network(&net, &path).unwrap();
        let mut restored = lenet_tiny(999); // different init
        assert_ne!(restored.params().as_slice(), net.params().as_slice());
        load_network(&mut restored, &path).unwrap();
        assert_eq!(restored.params().as_slice(), net.params().as_slice());
    }

    #[test]
    fn restored_network_predicts_identically() {
        let mut net = lenet_tiny(2);
        let path = tmp("predict.ckpt");
        save_network(&net, &path).unwrap();
        let mut restored = lenet_tiny(3);
        load_network(&mut restored, &path).unwrap();
        let x = Tensor::full([2, 1, 12, 12], 0.3);
        assert_eq!(
            net.forward(&x, false).as_slice(),
            restored.forward(&x, false).as_slice()
        );
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let net = lenet_tiny(4);
        let path = tmp("mismatch.ckpt");
        save_network(&net, &path).unwrap();
        let mut other = mlp(10, &[5], 2, 5);
        let err = load_network(&mut other, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_corrupt_magic() {
        let path = tmp("corrupt.ckpt");
        std::fs::write(&path, b"NOTACKPTxxxxxxxxxxxx").unwrap();
        let mut net = lenet_tiny(6);
        assert!(matches!(
            load_network(&mut net, &path),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn rejects_truncated_payload() {
        let net = lenet_tiny(7);
        let path = tmp("truncated.ckpt");
        save_network(&net, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut restored = lenet_tiny(8);
        let before = restored.params().as_slice().to_vec();
        assert!(matches!(
            load_network(&mut restored, &path),
            Err(CheckpointError::Io(_))
        ));
        assert_eq!(
            restored.params().as_slice(),
            &before[..],
            "half-loaded model"
        );
    }

    /// A saved arena's bytes and a fresh model of the same architecture.
    fn saved() -> (Vec<u8>, ParamArena) {
        let mut bytes = Vec::new();
        write_arena(mlp(6, &[5], 3, 11).params(), &mut bytes).unwrap();
        (bytes, mlp(6, &[5], 3, 12).params().clone())
    }

    /// Loads `bytes` into a copy of `model`: `Ok` with the arena the file
    /// holds, or a typed error with the arena unchanged bit for bit.
    fn load_or_unchanged(model: &ParamArena, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut arena = model.clone();
        let result = read_arena(&mut arena, &mut &bytes[..]);
        if result.is_err() {
            let bits =
                |a: &ParamArena| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&arena), bits(model), "a failed load wrote the arena");
        }
        result
    }

    #[test]
    fn every_truncation_and_padding_is_a_typed_error() {
        let (bytes, model) = saved();
        assert!(load_or_unchanged(&model, &bytes).is_ok());
        for cut in 0..bytes.len() {
            let err = load_or_unchanged(&model, &bytes[..cut]).unwrap_err();
            assert!(matches!(err, CheckpointError::Io(_)), "cut at {cut}: {err}");
        }
        for extra in 1..=16u8 {
            let mut padded = bytes.clone();
            padded.extend((0..extra).map(|b| b.wrapping_mul(37)));
            let err = load_or_unchanged(&model, &padded).unwrap_err();
            assert!(matches!(err, CheckpointError::Format(_)), "+{extra}: {err}");
        }
    }

    proptest::proptest! {
        #[test]
        fn a_flipped_bit_is_refused_and_leaves_the_arena(
            at in 0usize..1 << 20,
            bit in 0u32..8,
            flips in 1usize..4,
        ) {
            let (mut bytes, model) = saved();
            let len = bytes.len();
            for f in 0..flips {
                bytes[(at + f * 7919) % len] ^= 1 << ((bit as usize + f) % 8);
            }
            // A flip in a length field can turn the file into a short
            // one (Io) or a mismatched one (Format); either way it is
            // refused, never loaded.
            proptest::prop_assert!(load_or_unchanged(&model, &bytes).is_err());
        }
    }
}
