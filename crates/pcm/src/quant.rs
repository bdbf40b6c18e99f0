//! Fixed-point quantization and bit-slicing for crossbar storage.
//!
//! The accelerator stores 8-bit operands on 4-bit devices by pairing two
//! adjacent columns — one for the 4 MSBs, one for the 4 LSBs (Section IV:
//! "to mimic an 8-bit cell with a 4-bit cell, two adjacent columns are
//! used"). Conductances are non-negative, so signed 8-bit weights are kept
//! in *offset-binary*: `u = q + 128`. The digital block recombines the two
//! nibble dot-products with a weighted sum and subtracts the offset term
//! `128 * sum(x)`, which is exactly the per-GEMV "extra ALU operation"
//! work priced at 2.11 pJ/op in Table I.

/// Symmetric linear quantization parameters for a tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real value represented by one integer step.
    pub scale: f32,
}

impl QuantParams {
    /// Chooses a scale so that `max_abs` maps to 127.
    pub fn from_max_abs(max_abs: f32) -> Self {
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        QuantParams { scale }
    }

    /// Quantizes one value to `[-127, 127]`: round half away from zero,
    /// then saturate (NaN maps to 0).
    ///
    /// Clamps first, then rounds by truncation plus a half-way
    /// correction. Because the clamp bounds are integers this equals
    /// `(x / scale).round().clamp(-127.0, 127.0)` for every input, and it
    /// avoids the `roundf` library call that baseline x86-64 builds make
    /// per element. `y - trunc(y)` is exact for `|y| <= 127`.
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        let y = (x / self.scale).clamp(-127.0, 127.0);
        let t = y as i8;
        let frac = y - t as f32;
        if frac >= 0.5 {
            t + 1
        } else if frac <= -0.5 {
            t - 1
        } else {
            t
        }
    }

    /// Dequantizes one value.
    pub fn dequantize(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }
}

/// Largest magnitude in `data` (`0.0` when empty; NaNs are ignored, as
/// by `f32::max`).
///
/// Folds eight independent lanes so the loop vectorizes. Max over
/// non-NaN values is order-independent, so the result is exactly that
/// of a sequential fold.
pub fn max_abs(data: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let chunks = data.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v.abs());
        }
    }
    tail.iter().chain(&lanes).fold(0.0f32, |m, v| m.max(v.abs()))
}

/// Quantizes a whole slice, deriving the scale from its max magnitude.
pub fn quantize_tensor(data: &[f32]) -> (QuantParams, Vec<i8>) {
    let p = QuantParams::from_max_abs(max_abs(data));
    (p, data.iter().map(|v| p.quantize(*v)).collect())
}

/// Offset-binary encoding of a signed 8-bit weight (`q + 128`).
pub fn to_offset(q: i8) -> u8 {
    (q as i16 + 128) as u8
}

/// Inverse of [`to_offset`].
pub fn from_offset(u: u8) -> i8 {
    (u as i16 - 128) as i8
}

/// Splits an offset-binary byte into `(msb_nibble, lsb_nibble)`, each a
/// 4-bit PCM level.
pub fn split_nibbles(u: u8) -> (u8, u8) {
    (u >> 4, u & 0x0F)
}

/// Rebuilds the offset-binary byte from its nibbles.
pub fn join_nibbles(msb: u8, lsb: u8) -> u8 {
    (msb << 4) | (lsb & 0x0F)
}

/// Recombines nibble-column dot products into the signed dot product.
///
/// Given `msb_dot = sum(x_i * msb_i)`, `lsb_dot = sum(x_i * lsb_i)` and
/// `input_sum = sum(x_i)`, the signed dot is
/// `16*msb_dot + lsb_dot - 128*input_sum`.
pub fn recombine_dot(msb_dot: i64, lsb_dot: i64, input_sum: i64) -> i64 {
    16 * msb_dot + lsb_dot - 128 * input_sum
}

/// Number of digital ALU operations needed per output column for the
/// weighted-sum recombination (shift, add, multiply-subtract of offset).
pub const RECOMBINE_ALU_OPS_PER_COLUMN: u64 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let data = [0.5f32, -1.25, 3.75, 0.0, -3.9];
        let (p, q) = quantize_tensor(&data);
        for (x, qi) in data.iter().zip(&q) {
            let back = p.dequantize(*qi);
            assert!((back - x).abs() <= p.scale / 2.0 + 1e-6);
        }
    }

    #[test]
    fn all_zero_tensor_gets_unit_scale() {
        let (p, q) = quantize_tensor(&[0.0, 0.0]);
        assert_eq!(p.scale, 1.0);
        assert!(q.iter().all(|v| *v == 0));
    }

    #[test]
    fn offset_encoding_roundtrips() {
        for q in -127i16..=127 {
            let u = to_offset(q as i8);
            assert_eq!(from_offset(u) as i16, q);
        }
    }

    #[test]
    fn nibble_split_join_roundtrips() {
        for u in 0u16..=255 {
            let (m, l) = split_nibbles(u as u8);
            assert!(m < 16 && l < 16);
            assert_eq!(join_nibbles(m, l), u as u8);
        }
    }

    #[test]
    fn recombine_matches_direct_dot() {
        let weights: Vec<i8> = vec![-127, -1, 0, 1, 64, 127];
        let inputs: Vec<i64> = vec![3, -7, 11, 0, -128, 127];
        let direct: i64 = weights.iter().zip(&inputs).map(|(w, x)| *w as i64 * x).sum();
        let mut msb_dot = 0i64;
        let mut lsb_dot = 0i64;
        let input_sum: i64 = inputs.iter().sum();
        for (w, x) in weights.iter().zip(&inputs) {
            let (m, l) = split_nibbles(to_offset(*w));
            msb_dot += m as i64 * x;
            lsb_dot += l as i64 * x;
        }
        assert_eq!(recombine_dot(msb_dot, lsb_dot, input_sum), direct);
    }

    proptest! {
        #[test]
        fn prop_recombine_equals_direct(ws in proptest::collection::vec(-127i8..=127, 1..64),
                                        xs in proptest::collection::vec(-127i64..=127, 1..64)) {
            let n = ws.len().min(xs.len());
            let direct: i64 = ws[..n].iter().zip(&xs[..n]).map(|(w, x)| *w as i64 * x).sum();
            let mut msb = 0i64;
            let mut lsb = 0i64;
            let sum: i64 = xs[..n].iter().sum();
            for (w, x) in ws[..n].iter().zip(&xs[..n]) {
                let (m, l) = split_nibbles(to_offset(*w));
                msb += m as i64 * x;
                lsb += l as i64 * x;
            }
            prop_assert_eq!(recombine_dot(msb, lsb, sum), direct);
        }

        #[test]
        fn prop_quantization_error_bound(data in proptest::collection::vec(-1e4f32..1e4, 1..128)) {
            let (p, q) = quantize_tensor(&data);
            for (x, qi) in data.iter().zip(&q) {
                let back = p.dequantize(*qi);
                prop_assert!((back - x).abs() <= p.scale * 0.5 + 1e-3);
            }
        }
    }
}
