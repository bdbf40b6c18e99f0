//! `QuantParams::quantize` against the round-then-clamp formula it
//! replaces, kept here as the oracle: `(x / scale).round()` (half away
//! from zero) saturated to `[-127, 127]`, NaN mapping to 0.
//!
//! The library clamps first and rounds by truncation with a half-way
//! correction; the two agree on every f32 because the clamp bounds are
//! integers. The sampled tests below cover the places where they could
//! differ — half-way points and their neighbours, the clamp edges and the
//! special values — and `exhaustive_all_f32_inputs` (ignored by default;
//! run it with `cargo test -p cim_pcm --release --test quant_equivalence
//! -- --ignored`) sweeps all 2^32 bit patterns.

use cim_pcm::quant::{max_abs, quantize_tensor};
use cim_pcm::QuantParams;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn oracle(p: &QuantParams, x: f32) -> i8 {
    (x / p.scale).round().clamp(-127.0, 127.0) as i8
}

fn check(p: &QuantParams, x: f32) {
    assert_eq!(
        p.quantize(x),
        oracle(p, x),
        "x = {x:e} ({:#010x}), scale = {}",
        x.to_bits(),
        p.scale
    );
}

fn next_up(x: f32) -> f32 {
    match x {
        _ if x.is_nan() || x == f32::INFINITY => x,
        _ if x == 0.0 => f32::from_bits(1),
        _ if x > 0.0 => f32::from_bits(x.to_bits() + 1),
        _ => f32::from_bits(x.to_bits() - 1),
    }
}

fn next_down(x: f32) -> f32 {
    -next_up(-x)
}

/// Unit scale (the value itself is rounded) and two fractional scales,
/// one of them an exact power of two.
fn scales() -> [QuantParams; 3] {
    [QuantParams::from_max_abs(127.0), QuantParams::from_max_abs(1.0), QuantParams { scale: 0.25 }]
}

#[test]
fn half_way_points_and_their_neighbours() {
    for p in scales() {
        for h in -130..130 {
            // x / scale lands on (or next to) h + 0.5 in [-130, 130].
            let half = (h as f32 + 0.5) * p.scale;
            for x in [half, next_up(half), next_down(half)] {
                check(&p, x);
            }
            let int = h as f32 * p.scale;
            for x in [int, next_up(int), next_down(int)] {
                check(&p, x);
            }
        }
    }
}

#[test]
fn fine_grid_over_the_clamp_range() {
    for p in scales() {
        for i in -130 * 1024..=130 * 1024 {
            check(&p, i as f32 / 1024.0 * p.scale);
        }
    }
}

#[test]
fn special_values() {
    let sub = f32::from_bits(1);
    let specials = [
        0.0,
        -0.0,
        sub,
        -sub,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(0x007f_ffff),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MAX,
        f32::MIN,
        126.5,
        -126.5,
        127.49999,
        -127.5,
        0.49999997,
        -0.49999997,
    ];
    for p in scales() {
        for x in specials {
            check(&p, x);
        }
    }
    assert_eq!(QuantParams::from_max_abs(1.0).quantize(f32::NAN), 0);
    assert_eq!(QuantParams::from_max_abs(1.0).quantize(f32::INFINITY), 127);
    assert_eq!(QuantParams::from_max_abs(1.0).quantize(f32::NEG_INFINITY), -127);
}

#[test]
fn seeded_random_bit_patterns() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0013);
    for p in scales() {
        for _ in 0..1_000_000 {
            check(&p, f32::from_bits((rng.next_u64() >> 32) as u32));
        }
    }
}

#[test]
fn tensor_scale_uses_the_order_free_max() {
    // Lengths off the 8-lane width, NaNs and signed zeros included.
    let mut rng = StdRng::seed_from_u64(7);
    for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
        let mut data: Vec<f32> = (0..len)
            .map(|_| ((rng.next_u64() >> 32) as u32 % 20_001) as f32 / 100.0 - 100.0)
            .collect();
        if len > 3 {
            data[len / 2] = f32::NAN;
            data[len - 1] = -0.0;
        }
        let sequential = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert_eq!(max_abs(&data).to_bits(), sequential.to_bits(), "len {len}");
        let (p, q) = quantize_tensor(&data);
        assert_eq!(p, QuantParams::from_max_abs(sequential));
        for (x, qi) in data.iter().zip(&q) {
            assert_eq!(*qi, oracle(&p, *x));
        }
    }
}

#[test]
#[ignore = "sweeps all 2^32 f32 inputs; run in release"]
fn exhaustive_all_f32_inputs() {
    for p in scales() {
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            if p.quantize(x) != oracle(&p, x) {
                check(&p, x);
            }
        }
    }
}
