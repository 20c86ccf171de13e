//! Seeded input generation. `--seed` changes generated values only: never
//! client ids (which fix shard placement), fleet sizes or shapes.

/// SplitMix64: small, fast, and good enough to fill buffers.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 23) as f32) - 1.0
    }

    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Initial global model: uniform in `[-0.1, 0.1)`.
pub fn initial_model(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed ^ 0x6d6f_6465_6c00);
    (0..len).map(|_| 0.1 * rng.unit()).collect()
}

/// One client's pseudo-gradient: a cubed uniform, so most coordinates are
/// near zero and a few are large — the shape a top-k codec selects on —
/// at a few percent of the weights' magnitude, as a learning-rate-scaled
/// step is.
pub fn pseudo_gradient(seed: u64, client: usize, len: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed ^ (0x6772_6164u64 << 16) ^ client as u64);
    (0..len)
        .map(|_| {
            let u = rng.unit();
            0.005 * u * u * u
        })
        .collect()
}

/// `local = global + gradient rotated by the round`: a fresh delta every
/// round for two slice additions, so the driver spends its time driving.
pub fn local_update(global: &[f32], gradient: &[f32], round: u64, out: &mut Vec<f32>) {
    let n = global.len();
    out.clear();
    if n == 0 {
        return;
    }
    let offset = (round.wrapping_mul(7919) % n as u64) as usize;
    let (head, tail) = gradient.split_at(offset);
    out.extend(
        global
            .iter()
            .zip(tail.iter().chain(head.iter()))
            .map(|(g, d)| g + d),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(initial_model(7, 64), initial_model(7, 64));
        assert_ne!(initial_model(7, 64), initial_model(8, 64));
        assert_eq!(pseudo_gradient(7, 3, 64), pseudo_gradient(7, 3, 64));
        assert_ne!(pseudo_gradient(7, 3, 64), pseudo_gradient(7, 4, 64));
        assert!(initial_model(7, 4096).iter().all(|v| v.abs() <= 0.1));
    }

    #[test]
    fn local_update_rotates_the_gradient() {
        let global = vec![10.0, 20.0, 30.0, 40.0];
        let gradient = vec![1.0, 2.0, 3.0, 4.0];
        let mut out = Vec::new();
        local_update(&global, &gradient, 0, &mut out);
        assert_eq!(out, vec![11.0, 22.0, 33.0, 44.0]);
        // 7919 % 4 == 3: the gradient is read from index 3 onwards.
        local_update(&global, &gradient, 1, &mut out);
        assert_eq!(out, vec![14.0, 21.0, 32.0, 43.0]);
    }
}
