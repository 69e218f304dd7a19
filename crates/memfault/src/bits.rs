//! IEEE-754 bit views and flip arithmetic.

/// The bit positions (0 = LSB) that differ between two stored words,
/// given as bit patterns: an `f32`'s `to_bits`, or a zero-extended byte.
pub fn differing_bits(old: u32, new: u32) -> Vec<u8> {
    let x = old ^ new;
    (0..32).filter(|&b| x & (1 << b) != 0).collect()
}

/// Applies a set of bit flips to a value.
pub fn flip_bits(value: f32, bit_positions: &[u8]) -> f32 {
    let mut bits = value.to_bits();
    for &b in bit_positions {
        debug_assert!(b < 32, "bit position {b} out of range");
        bits ^= 1 << b;
    }
    f32::from_bits(bits)
}

/// Returns `true` if flipping `bit` in `value` sets it (0→1) rather than
/// clears it — rowhammer cells have a preferred flip direction.
pub fn flip_sets_bit(value: f32, bit: u8) -> bool {
    value.to_bits() & (1 << bit) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::Prng;

    /// Random `f32` covering the whole bit space — including NaNs,
    /// infinities, and subnormals, exactly what flip arithmetic must
    /// survive.
    fn any_f32(rng: &mut Prng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }

    fn differing(old: f32, new: f32) -> Vec<u8> {
        differing_bits(old.to_bits(), new.to_bits())
    }

    #[test]
    fn identical_values_need_no_flips() {
        assert!(differing(0.25, 0.25).is_empty());
    }

    #[test]
    fn sign_flip_is_one_bit() {
        assert_eq!(differing(1.0, -1.0), vec![31]);
    }

    #[test]
    fn flip_direction_detection() {
        // 1.0f32 = 0x3F800000: bit 31 clear, bit 30 clear, bit 29 set...
        assert!(flip_sets_bit(1.0, 31));
        assert!(!flip_sets_bit(-1.0, 31));
    }

    #[test]
    fn flip_roundtrip() {
        let mut rng = Prng::new(31);
        for _ in 0..1024 {
            let (a, b) = (any_f32(&mut rng), any_f32(&mut rng));
            // Applying the differing bits of (a, b) to a yields b's bits.
            let bits = differing(a, b);
            let got = flip_bits(a, &bits);
            assert_eq!(got.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn double_flip_is_identity() {
        let mut rng = Prng::new(33);
        for _ in 0..1024 {
            let v = any_f32(&mut rng);
            let bit = rng.below(32) as u8;
            let once = flip_bits(v, &[bit]);
            let twice = flip_bits(once, &[bit]);
            assert_eq!(twice.to_bits(), v.to_bits());
        }
    }
}
