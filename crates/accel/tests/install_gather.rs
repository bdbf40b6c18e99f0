//! Install-gather accounting: the engine's block gather of `op(A)` must
//! leave every tile exactly as installing an explicitly built
//! crossbar-orientation operand would (levels, per-device wear, shadow,
//! residency), and its traffic must match the closed form — one DMA
//! burst of `mt * 4` bytes per crossbar row of every installed block,
//! whether `A` is read directly (a strided column gather) or transposed
//! (a row read), with any leading dimension and partial edge blocks.

use cim_accel::regs::{Command, Reg, Status};
use cim_accel::shard::plan_waves;
use cim_accel::{AccelConfig, CimAccelerator, CimTile, TileKey};
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_pcm::Fidelity;
use proptest::prelude::*;

/// Sentinel stored in the padding of every leading dimension: a gather
/// that strays outside its block installs it and fails the comparison.
const PAD: f32 = 999.0;

struct Gemm {
    m: usize,
    n: usize,
    k: usize,
    trans_a: bool,
    lda: usize,
    beta: f32,
}

impl Gemm {
    /// Row-major `A` with leading dimension `lda`; `op(A)[i][kk]` is a
    /// distinct fraction per `(i, kk, salt)` and the padding is [`PAD`].
    fn a_matrix(&self, salt: usize) -> Vec<f32> {
        let (rows, used) = if self.trans_a { (self.k, self.m) } else { (self.m, self.k) };
        let mut a = vec![PAD; rows * self.lda];
        for r in 0..rows {
            for c in 0..used {
                a[r * self.lda + c] = ((r * 131 + c * 17 + salt * 7) % 97) as f32 * 0.03125 - 1.5;
            }
        }
        a
    }

    /// `op(A)[i][kk]` read from the host copy.
    fn op_a(&self, a: &[f32], i: usize, kk: usize) -> f32 {
        if self.trans_a {
            a[kk * self.lda + i]
        } else {
            a[i * self.lda + kk]
        }
    }
}

fn alloc(mach: &mut Machine, data: &[f32]) -> u64 {
    let (_va, pa) = mach.alloc_cma((data.len() * 4) as u64).expect("cma");
    mach.mem.write_f32_slice(pa, data);
    pa
}

/// Expected traffic of one GEMM, replayed in the engine's issue order.
#[derive(Debug, Default, PartialEq)]
struct Traffic {
    /// Blocks found resident (no gather, no programming).
    skips: u64,
    /// Crossbar rows programmed: one install burst each.
    rows_programmed: u64,
    /// 8-bit cells programmed.
    cell_writes: u64,
    /// All DMA bursts: the install rows plus the GEMV-phase `B` and `C`
    /// segments.
    bursts: u64,
    bytes_in: u64,
    bytes_written: u64,
    busy: SimTime,
}

/// Runs one GEMM with `A` at `a_pa` on `acc` and replays its installs on
/// `model` (explicitly built operands); returns the closed-form traffic.
#[allow(clippy::too_many_arguments)]
fn run_and_replay(
    acc: &mut CimAccelerator,
    mach: &mut Machine,
    model: &mut [CimTile],
    grid: (usize, usize),
    gemm: &Gemm,
    a: &[f32],
    a_pa: u64,
    b_pa: u64,
    c_pa: u64,
) -> Traffic {
    let cfg = *acc.config();
    let bus = mach.cfg.bus;
    let mut want = Traffic::default();
    for wave in plan_waves(cfg.rows, cfg.cols, grid, gemm.m, gemm.k) {
        for ms in &wave.m_spans {
            for ks in &wave.k_spans {
                let (kt, mt) = (ks.len, ms.len);
                let key = TileKey {
                    base_pa: a_pa,
                    ld: gemm.lda,
                    transposed: gemm.trans_a,
                    origin: (ms.start, ks.start),
                    extent: (kt, mt),
                    generation: acc.generation(),
                };
                let g: Vec<f32> = (0..kt * mt)
                    .map(|e| gemm.op_a(a, ms.start + e % mt, ks.start + e / mt))
                    .collect();
                let receipt = model[ks.lane * grid.1 + ms.lane].install(key, &g, kt, mt);
                if receipt.resident_hit {
                    want.skips += 1;
                    continue;
                }
                want.rows_programmed += kt as u64;
                want.cell_writes += (kt * mt) as u64;
                want.bursts += kt as u64;
                want.bytes_in += (kt * mt * 4) as u64;
                for _ in 0..kt {
                    want.busy += bus.dma_time((mt * 4) as u64);
                }
            }
        }
        let reads_c = !(wave.first_k && gemm.beta == 0.0);
        for _ in 0..gemm.n {
            for ks in &wave.k_spans {
                want.bursts += 1;
                want.bytes_in += (ks.len * 4) as u64;
                want.busy += bus.dma_time((ks.len * 4) as u64);
            }
            for ms in &wave.m_spans {
                if reads_c {
                    want.bursts += 1;
                    want.bytes_in += (ms.len * 4) as u64;
                    want.busy += bus.dma_time((ms.len * 4) as u64);
                }
                want.bytes_written += (ms.len * 4) as u64;
            }
        }
    }

    acc.reset_stats();
    mach.bus.reset_stats();
    mach.mem.reset_stats();
    for (r, v) in [
        (Reg::M, gemm.m as u64),
        (Reg::N, gemm.n as u64),
        (Reg::K, gemm.k as u64),
        (Reg::Lda, gemm.lda as u64),
        (Reg::Ldb, gemm.n as u64),
        (Reg::Ldc, gemm.n as u64),
        (Reg::AddrA, a_pa),
        (Reg::AddrB, b_pa),
        (Reg::AddrC, c_pa),
        (Reg::Alpha, 1.0f32.to_bits() as u64),
        (Reg::Beta, gemm.beta.to_bits() as u64),
        (Reg::TransA, gemm.trans_a as u64),
        (Reg::TransB, 0),
    ] {
        acc.pmio_write(r, v);
    }
    acc.pmio_write(Reg::Command, Command::Gemm as u64);
    acc.execute(mach);
    assert_eq!(acc.regs().status(), Status::Done, "{:?}", acc.last_error());
    want
}

fn observed(acc: &CimAccelerator, mach: &Machine) -> Traffic {
    let bus = mach.bus.stats();
    let dma = acc.dma_stats();
    let mem = mach.mem.stats();
    assert_eq!(bus.dma_bytes_in, dma.bytes_in, "bus and DMA engine disagree");
    assert_eq!(mem.bytes_read, dma.bytes_in, "every DMA byte is one memory read");
    Traffic {
        skips: acc.stats().install_skips,
        rows_programmed: acc.stats().rows_programmed,
        cell_writes: acc.stats().cell_writes,
        bursts: bus.dma_bursts,
        bytes_in: dma.bytes_in,
        bytes_written: mem.bytes_written,
        busy: dma.busy,
    }
}

/// Three GEMMs on one accelerator: a fresh install, the same operand
/// again (resident where the waves allow), then a new operand over the
/// worn tiles. Returns the total install skips.
fn check(grid: (usize, usize), gemm: &Gemm, fidelity: Fidelity) -> u64 {
    let cfg = AccelConfig { fidelity, ..AccelConfig::test_small() }.with_grid(grid.0, grid.1);
    let mut mach = Machine::new(MachineConfig::test_small());
    let mut acc = CimAccelerator::new(cfg, mach.cfg.bus);
    let mut model: Vec<CimTile> = (0..cfg.tile_count()).map(|_| CimTile::new(&cfg)).collect();
    let a1 = gemm.a_matrix(1);
    let a2 = gemm.a_matrix(2);
    let a1_pa = alloc(&mut mach, &a1);
    let a2_pa = alloc(&mut mach, &a2);
    let b: Vec<f32> = (0..gemm.k * gemm.n).map(|i| (i % 11) as f32 * 0.5 - 2.0).collect();
    let b_pa = alloc(&mut mach, &b);
    let c_pa = alloc(&mut mach, &vec![0.25f32; gemm.m * gemm.n]);
    let (mut rows_programmed, mut skips) = (0, 0);
    for (a, a_pa) in [(&a1, a1_pa), (&a1, a1_pa), (&a2, a2_pa)] {
        let want = run_and_replay(&mut acc, &mut mach, &mut model, grid, gemm, a, a_pa, b_pa, c_pa);
        assert_eq!(observed(&acc, &mach), want);
        for (i, (tile, expect)) in acc.tiles().iter().zip(&model).enumerate() {
            assert!(tile == expect, "tile {i} differs from the explicitly built install");
        }
        rows_programmed += acc.stats().rows_programmed;
        skips += acc.stats().install_skips;
    }
    assert!(rows_programmed > 0);
    skips
}

#[test]
fn direct_and_transposed_gathers_with_padded_leading_dimension() {
    // 13 x 11 op(A) on 8 x 8 tiles: partial edge blocks in both
    // dimensions. The 1x1 grid runs four waves that overwrite each
    // other; the 2x2 grid runs one, so the repeated GEMM is resident.
    for (grid, resident_skips) in [((1, 1), 0), ((2, 2), 4)] {
        for trans_a in [false, true] {
            for pad in [0, 5] {
                let lda = if trans_a { 13 } else { 11 } + pad;
                let gemm = Gemm { m: 13, n: 3, k: 11, trans_a, lda, beta: 0.0 };
                assert_eq!(check(grid, &gemm, Fidelity::Exact), resident_skips);
            }
        }
    }
}

#[test]
fn int8_tiles_match_the_explicit_install() {
    let gemm = Gemm { m: 9, n: 2, k: 17, trans_a: false, lda: 20, beta: 0.5 };
    assert_eq!(check((2, 1), &gemm, Fidelity::Int8), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gather_accounting_matches_closed_form(
        gk in 1usize..4,
        gm in 1usize..4,
        m in 1usize..30,
        n in 1usize..4,
        k in 1usize..30,
        trans_a in proptest::bool::ANY,
        pad in 0usize..7,
        beta_zero in proptest::bool::ANY,
    ) {
        let lda = if trans_a { m } else { k } + pad;
        let beta = if beta_zero { 0.0 } else { 0.5 };
        check((gk, gm), &Gemm { m, n, k, trans_a, lda, beta }, Fidelity::Exact);
    }
}
