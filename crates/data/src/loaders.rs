//! Loaders for the real dataset formats (§10.2 of the paper's artifact
//! appendix): MNIST idx files and CIFAR-10 binary batches.
//!
//! The environment this reproduction was built in is offline, so the
//! experiments run on [`crate::synthetic`] data — but these loaders are
//! tested against generated fixture files and accept the genuine
//! downloads unchanged (`train-images-idx3-ubyte`, `data_batch_*.bin`).

use crate::dataset::Dataset;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// Errors from dataset parsing.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file didn't match the expected format.
    Format(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn read_all(path: &Path) -> Result<Vec<u8>, LoadError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    Ok(buf)
}

fn be_u32(b: &[u8], off: usize) -> Result<u32, LoadError> {
    b.get(off..off + 4)
        .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
        .ok_or_else(|| LoadError::Format("truncated header".to_string()))
}

/// Parses an MNIST idx3 image file (magic `0x00000803`) into raw pixels
/// scaled to `[0, 1]`.
pub fn parse_idx_images(bytes: &[u8]) -> Result<(Vec<f32>, usize, usize, usize), LoadError> {
    let magic = be_u32(bytes, 0)?;
    if magic != 0x0000_0803 {
        return Err(LoadError::Format(format!(
            "bad idx3 magic {magic:#010x}, expected 0x00000803"
        )));
    }
    let n = be_u32(bytes, 4)? as usize;
    let h = be_u32(bytes, 8)? as usize;
    let w = be_u32(bytes, 12)? as usize;
    // Three untrusted u32s: their product can exceed any address space.
    let need = n
        .checked_mul(h)
        .and_then(|p| p.checked_mul(w))
        .and_then(|p| p.checked_add(16))
        .ok_or_else(|| {
            LoadError::Format(format!("idx3 header {n}x{h}x{w} overflows a byte count"))
        })?;
    if bytes.len() < need {
        return Err(LoadError::Format(format!(
            "idx3 body too short: {} < {need}",
            bytes.len()
        )));
    }
    let pixels = bytes[16..need].iter().map(|&b| b as f32 / 255.0).collect();
    Ok((pixels, n, h, w))
}

/// Parses an MNIST idx1 label file (magic `0x00000801`).
pub fn parse_idx_labels(bytes: &[u8]) -> Result<Vec<usize>, LoadError> {
    let magic = be_u32(bytes, 0)?;
    if magic != 0x0000_0801 {
        return Err(LoadError::Format(format!(
            "bad idx1 magic {magic:#010x}, expected 0x00000801"
        )));
    }
    let n = be_u32(bytes, 4)? as usize;
    let need = n
        .checked_add(8)
        .ok_or_else(|| LoadError::Format(format!("idx1 header count {n} overflows")))?;
    if bytes.len() < need {
        return Err(LoadError::Format(format!(
            "idx1 body too short: {} < {need}",
            bytes.len()
        )));
    }
    Ok(bytes[8..need].iter().map(|&b| b as usize).collect())
}

/// Loads an MNIST image/label file pair into a normalized [`Dataset`].
pub fn load_mnist(images_path: &Path, labels_path: &Path) -> Result<Dataset, LoadError> {
    let (pixels, n, h, w) = parse_idx_images(&read_all(images_path)?)?;
    let labels = parse_idx_labels(&read_all(labels_path)?)?;
    if labels.len() != n {
        return Err(LoadError::Format(format!(
            "{n} images but {} labels",
            labels.len()
        )));
    }
    if let Some(&bad) = labels.iter().find(|&&l| l > 9) {
        return Err(LoadError::Format(format!("mnist label {bad} > 9")));
    }
    let mut d = Dataset::new("mnist", vec![1, h, w], 10, pixels, labels);
    d.normalize();
    Ok(d)
}

/// Number of bytes per record in a CIFAR-10 binary batch:
/// 1 label byte + 3×32×32 pixel bytes.
pub const CIFAR_RECORD_BYTES: usize = 1 + 3 * 32 * 32;

/// Parses one CIFAR-10 binary batch (`data_batch_N.bin` layout: records of
/// label byte + 3072 channel-major pixel bytes).
pub fn parse_cifar_batch(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>), LoadError> {
    if bytes.is_empty() || !bytes.len().is_multiple_of(CIFAR_RECORD_BYTES) {
        return Err(LoadError::Format(format!(
            "cifar batch size {} is not a multiple of {CIFAR_RECORD_BYTES}",
            bytes.len()
        )));
    }
    let n = bytes.len() / CIFAR_RECORD_BYTES;
    let mut pixels = Vec::with_capacity(n * 3072);
    let mut labels = Vec::with_capacity(n);
    for r in 0..n {
        let rec = &bytes[r * CIFAR_RECORD_BYTES..(r + 1) * CIFAR_RECORD_BYTES];
        let label = rec[0] as usize;
        if label > 9 {
            return Err(LoadError::Format(format!("cifar label {label} > 9")));
        }
        labels.push(label);
        pixels.extend(rec[1..].iter().map(|&b| b as f32 / 255.0));
    }
    Ok((pixels, labels))
}

/// Loads one or more CIFAR-10 binary batch files into a normalized
/// [`Dataset`].
pub fn load_cifar(paths: &[&Path]) -> Result<Dataset, LoadError> {
    if paths.is_empty() {
        return Err(LoadError::Format("no cifar batch files given".to_string()));
    }
    let mut pixels = Vec::new();
    let mut labels = Vec::new();
    for p in paths {
        let (px, lb) = parse_cifar_batch(&read_all(p)?)?;
        pixels.extend(px);
        labels.extend(lb);
    }
    let mut d = Dataset::new("cifar", vec![3, 32, 32], 10, pixels, labels);
    d.normalize();
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Builds an idx3 fixture of `n` images `h×w` with pixel value = index.
    fn idx3_fixture(n: usize, h: usize, w: usize) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&0x0000_0803u32.to_be_bytes());
        b.extend_from_slice(&(n as u32).to_be_bytes());
        b.extend_from_slice(&(h as u32).to_be_bytes());
        b.extend_from_slice(&(w as u32).to_be_bytes());
        for i in 0..n * h * w {
            b.push((i % 256) as u8);
        }
        b
    }

    fn idx1_fixture(labels: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&0x0000_0801u32.to_be_bytes());
        b.extend_from_slice(&(labels.len() as u32).to_be_bytes());
        b.extend_from_slice(labels);
        b
    }

    #[test]
    fn idx3_roundtrip() {
        let (pixels, n, h, w) = parse_idx_images(&idx3_fixture(3, 4, 5)).unwrap();
        assert_eq!((n, h, w), (3, 4, 5));
        assert_eq!(pixels.len(), 60);
        assert!((pixels[10] - 10.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn idx1_roundtrip() {
        let labels = parse_idx_labels(&idx1_fixture(&[3, 1, 4, 1, 5])).unwrap();
        assert_eq!(labels, vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn idx3_rejects_wrong_magic() {
        let mut f = idx3_fixture(1, 2, 2);
        f[3] = 0x01; // idx1 magic in an idx3 parse
        assert!(matches!(parse_idx_images(&f), Err(LoadError::Format(_))));
    }

    #[test]
    fn idx3_rejects_truncation() {
        let mut f = idx3_fixture(2, 4, 4);
        f.truncate(f.len() - 1);
        assert!(parse_idx_images(&f).is_err());
    }

    #[test]
    fn idx3_rejects_a_header_whose_size_overflows() {
        let mut f = Vec::new();
        f.extend_from_slice(&0x0000_0803u32.to_be_bytes());
        for _ in 0..3 {
            f.extend_from_slice(&u32::MAX.to_be_bytes());
        }
        f.extend_from_slice(&[7; 64]);
        let err = parse_idx_images(&f).unwrap_err();
        assert!(
            matches!(&err, LoadError::Format(m) if m.contains("overflows")),
            "{err}"
        );
    }

    /// Every prefix, 1–16 extra bytes, and `flips` bit flips of `valid`
    /// through `parse`: each gives `Ok` or a typed error — a panic fails
    /// the test — and an `Ok` never holds more values than the input had
    /// bytes (the header sizes an allocation only once the bytes exist).
    fn hostile_variants<T>(
        valid: &[u8],
        parse: impl Fn(&[u8]) -> Result<T, LoadError>,
        len_of: impl Fn(&T) -> usize,
        flips: &[(usize, u32)],
    ) {
        let check = |bytes: &[u8]| match parse(bytes) {
            Ok(v) => assert!(len_of(&v) <= bytes.len(), "output larger than input"),
            Err(LoadError::Format(_) | LoadError::Io(_)) => {}
        };
        (0..valid.len()).for_each(|cut| check(&valid[..cut]));
        for extra in 1..=16u8 {
            let mut padded = valid.to_vec();
            padded.extend((0..extra).map(|b| b.wrapping_mul(89)));
            check(&padded);
        }
        let mut flipped = valid.to_vec();
        for &(at, bit) in flips {
            flipped[at % valid.len()] ^= 1 << (bit % 8);
        }
        check(&flipped);
    }

    proptest::proptest! {
        #[test]
        fn hostile_loader_bytes_are_ok_or_typed_errors(
            at in 0usize..1 << 16,
            bit in 0u32..8,
            spread in 1usize..64,
        ) {
            // Flips land in the header too (`at % len` reaches byte 0).
            let flips = [(at, bit), (at + spread, bit + 3), (at / 2, bit + 5)];
            hostile_variants(&idx3_fixture(3, 4, 5), parse_idx_images, |v| v.0.len(), &flips);
            hostile_variants(&idx1_fixture(&[3, 1, 4, 1, 5]), parse_idx_labels, Vec::len, &flips);
            hostile_variants(&cifar_fixture(2), parse_cifar_batch, |v| v.0.len(), &flips);
        }
    }

    #[test]
    fn load_mnist_from_fixture_files() {
        let dir = std::env::temp_dir().join("easgd_mnist_fixture");
        std::fs::create_dir_all(&dir).unwrap();
        let img_path = dir.join("images");
        let lbl_path = dir.join("labels");
        File::create(&img_path)
            .unwrap()
            .write_all(&idx3_fixture(4, 28, 28))
            .unwrap();
        File::create(&lbl_path)
            .unwrap()
            .write_all(&idx1_fixture(&[0, 1, 2, 3]))
            .unwrap();
        let d = load_mnist(&img_path, &lbl_path).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.shape, vec![1, 28, 28]);
        assert_eq!(d.labels(), &[0, 1, 2, 3]);
    }

    #[test]
    fn load_mnist_rejects_count_mismatch() {
        let dir = std::env::temp_dir().join("easgd_mnist_fixture2");
        std::fs::create_dir_all(&dir).unwrap();
        let img_path = dir.join("images");
        let lbl_path = dir.join("labels");
        File::create(&img_path)
            .unwrap()
            .write_all(&idx3_fixture(4, 28, 28))
            .unwrap();
        File::create(&lbl_path)
            .unwrap()
            .write_all(&idx1_fixture(&[0, 1]))
            .unwrap();
        assert!(load_mnist(&img_path, &lbl_path).is_err());
    }

    fn cifar_fixture(n: usize) -> Vec<u8> {
        let mut b = Vec::new();
        for r in 0..n {
            b.push((r % 10) as u8);
            for i in 0..3072 {
                b.push(((r + i) % 256) as u8);
            }
        }
        b
    }

    #[test]
    fn cifar_batch_roundtrip() {
        let (pixels, labels) = parse_cifar_batch(&cifar_fixture(3)).unwrap();
        assert_eq!(labels, vec![0, 1, 2]);
        assert_eq!(pixels.len(), 3 * 3072);
        assert!((pixels[0] - 0.0).abs() < 1e-6);
        assert!((pixels[3072] - 1.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn cifar_rejects_partial_record() {
        let mut f = cifar_fixture(2);
        f.pop();
        assert!(parse_cifar_batch(&f).is_err());
    }

    #[test]
    fn cifar_rejects_bad_label() {
        let mut f = cifar_fixture(1);
        f[0] = 11;
        assert!(parse_cifar_batch(&f).is_err());
    }

    #[test]
    fn load_cifar_concatenates_batches() {
        let dir = std::env::temp_dir().join("easgd_cifar_fixture");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("b1.bin");
        let p2 = dir.join("b2.bin");
        File::create(&p1)
            .unwrap()
            .write_all(&cifar_fixture(2))
            .unwrap();
        File::create(&p2)
            .unwrap()
            .write_all(&cifar_fixture(3))
            .unwrap();
        let d = load_cifar(&[&p1, &p2]).unwrap();
        assert_eq!(d.len(), 5);
        assert_eq!(d.shape, vec![3, 32, 32]);
    }
}
