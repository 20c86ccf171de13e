//! Flat-parameter serialization and vector arithmetic helpers.
//!
//! The FL transport format: a 12-byte header (magic, version, count) plus
//! little-endian `f32`s. Deliberately simple — the payload then flows
//! through MQTTFC batching/compression, which handles size.

/// Serialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// Input shorter than the header or declared length.
    Truncated,
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::Truncated => write!(f, "truncated parameter blob"),
            ParamError::BadMagic => write!(f, "bad parameter blob magic"),
            ParamError::BadVersion(v) => write!(f, "unsupported parameter version {v}"),
        }
    }
}

impl std::error::Error for ParamError {}

const MAGIC: [u8; 3] = *b"SFP"; // "Sdflmq Flat Params"
const VERSION: u8 = 1;

/// Serializes a flat parameter vector.
pub fn serialize(params: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + params.len() * 4);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

/// [`serialize`] into a caller-provided buffer (cleared first), converting
/// chunks on `pool`'s workers. Byte-identical to the serial path — each
/// element's little-endian bytes land at a fixed offset regardless of
/// which worker writes them.
pub fn serialize_into(params: &[f32], pool: &crate::parallel::WorkerPool, out: &mut Vec<u8>) {
    use crate::codec::PAR_CHUNK;
    out.clear();
    out.reserve(8 + params.len() * 4);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    out.resize(8 + params.len() * 4, 0);
    let body = &mut out[8..];
    let tasks: Vec<std::sync::Mutex<(&[f32], &mut [u8])>> = params
        .chunks(PAR_CHUNK)
        .zip(body.chunks_mut(PAR_CHUNK * 4))
        .map(std::sync::Mutex::new)
        .collect();
    pool.run(tasks.len(), |i| {
        let mut t = tasks[i].lock().unwrap();
        let (src, dst) = &mut *t;
        for (p, o) in src.iter().zip(dst.chunks_exact_mut(4)) {
            o.copy_from_slice(&p.to_le_bytes());
        }
    });
}

/// [`deserialize`] into a caller-provided buffer (cleared first).
///
/// Runs on the calling thread: the body is one little-endian copy
/// (~0.05 ms for the 109k-element MLP), cheaper than handing chunks to a
/// worker pool and waiting for them. Identical results to the serial path.
pub fn deserialize_into(bytes: &[u8], out: &mut Vec<f32>) -> Result<(), ParamError> {
    if bytes.len() < 8 {
        return Err(ParamError::Truncated);
    }
    if bytes[..3] != MAGIC {
        return Err(ParamError::BadMagic);
    }
    if bytes[3] != VERSION {
        return Err(ParamError::BadVersion(bytes[3]));
    }
    let count = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if bytes.len() < 8 + count * 4 {
        return Err(ParamError::Truncated);
    }
    out.clear();
    out.extend(
        bytes[8..8 + count * 4]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
    );
    Ok(())
}

/// Deserializes a flat parameter vector.
pub fn deserialize(bytes: &[u8]) -> Result<Vec<f32>, ParamError> {
    if bytes.len() < 8 {
        return Err(ParamError::Truncated);
    }
    if bytes[..3] != MAGIC {
        return Err(ParamError::BadMagic);
    }
    if bytes[3] != VERSION {
        return Err(ParamError::BadVersion(bytes[3]));
    }
    let count = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if bytes.len() < 8 + count * 4 {
        return Err(ParamError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let off = 8 + i * 4;
        out.push(f32::from_le_bytes([
            bytes[off],
            bytes[off + 1],
            bytes[off + 2],
            bytes[off + 3],
        ]));
    }
    Ok(out)
}

/// Euclidean distance between two parameter vectors.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            (d * d) as f64
        })
        .sum::<f64>()
        .sqrt() as f32
}

/// `dst += src * scale` (axpy).
pub fn axpy(dst: &mut [f32], src: &[f32], scale: f32) {
    assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s * scale;
    }
}

/// Scales a vector in place.
pub fn scale(v: &mut [f32], factor: f32) {
    for x in v {
        *x *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let params: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25 - 100.0).collect();
        let bytes = serialize(&params);
        assert_eq!(deserialize(&bytes).unwrap(), params);
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(deserialize(&serialize(&[])).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn special_values_roundtrip() {
        let params = vec![
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
        ];
        let got = deserialize(&serialize(&params)).unwrap();
        assert_eq!(got.len(), params.len());
        for (a, b) in got.iter().zip(&params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rejects_corruption() {
        let bytes = serialize(&[1.0, 2.0]);
        assert_eq!(deserialize(&bytes[..4]), Err(ParamError::Truncated));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(deserialize(&bad_magic), Err(ParamError::BadMagic));
        let mut bad_version = bytes.clone();
        bad_version[3] = 9;
        assert_eq!(deserialize(&bad_version), Err(ParamError::BadVersion(9)));
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 1);
        assert_eq!(deserialize(&short), Err(ParamError::Truncated));
    }

    #[test]
    fn vector_math() {
        assert!((l2_distance(&[0.0, 3.0], &[4.0, 0.0]) - 5.0).abs() < 1e-6);
        let mut dst = vec![1.0f32, 2.0];
        axpy(&mut dst, &[10.0, 20.0], 0.5);
        assert_eq!(dst, vec![6.0, 12.0]);
        scale(&mut dst, 2.0);
        assert_eq!(dst, vec![12.0, 24.0]);
    }
}
