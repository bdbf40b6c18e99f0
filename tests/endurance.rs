//! The endurance story of Section III-B: fusion halves crossbar write
//! traffic for shared-input kernels (Listing 2 / Fig. 5) — and, since
//! the serving layer, endurance as a *shared* resource: per-tenant wear
//! budgets throttle and steer a hot tenant before it burns out a tile,
//! wear lands exactly where each tenant's lease placed it, and a single
//! tenant served through the scheduler is byte-identical to the
//! pre-serving private-context baseline.

use cim_accel::AccelConfig;
use cim_machine::{Machine, MachineConfig};
use cim_pcm::wear::LifetimeModel;
use cim_runtime::{
    CimContext, CimServer, DevPtr, DispatchMode, DriverConfig, ServePolicy, TenantConfig, Transpose,
};
use tdo_cim::{compile, execute, CompileOptions, ExecOptions};

const LISTING2: &str = r#"
    const int N = 64;
    float A[N][N]; float B[N][N]; float C[N][N]; float D[N][N]; float E[N][N];
    void kernel() {
      for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < N; k++)
            C[i][j] += A[i][k] * B[k][j];
      for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < N; k++)
            D[i][j] += A[i][k] * E[k][j];
    }
"#;

fn writes_with_fusion(enable: bool) -> (u64, f64) {
    // The naive point-wise schedule of Section III-B: the pass pipeline's
    // pin placement would otherwise keep the shared operand resident and
    // erase the very write traffic this suite measures.
    let mut opts = CompileOptions::without_dataflow();
    opts.tactics.fusion = enable;
    let compiled = compile(LISTING2, &opts).expect("compiles");
    let init = |name: &str, data: &mut [f32]| {
        let seed = name.len();
        for (i, v) in data.iter_mut().enumerate() {
            *v = ((seed + i * 3) % 5) as f32 - 2.0;
        }
    };
    let r = execute(&compiled, &ExecOptions::default(), &init).expect("runs");
    let acc = r.accel.expect("offloaded");
    (acc.cell_writes, r.wall_time().as_s())
}

#[test]
fn fusion_halves_crossbar_writes() {
    let (fused, _) = writes_with_fusion(true);
    let (unfused, _) = writes_with_fusion(false);
    // Smart mapping writes A once; naive mapping writes it per kernel.
    assert_eq!(unfused, 2 * fused, "unfused {unfused} vs fused {fused}");

    // The default pass pipeline recovers the same factor without fusing:
    // pin placement keeps the shared A resident across both kernels.
    let mut pinned_opts = CompileOptions::default();
    pinned_opts.tactics.fusion = false;
    let compiled = compile(LISTING2, &pinned_opts).expect("compiles");
    assert_eq!(compiled.pass_counter("pins"), 1, "A must be pinned");
    let init = |name: &str, data: &mut [f32]| {
        let seed = name.len();
        for (i, v) in data.iter_mut().enumerate() {
            *v = ((seed + i * 3) % 5) as f32 - 2.0;
        }
    };
    let r = execute(&compiled, &ExecOptions::default(), &init).expect("runs");
    assert_eq!(r.accel.expect("offloaded").cell_writes, fused, "pinning matches fused writes");
}

#[test]
fn fusion_doubles_projected_lifetime() {
    // Equation 1 applied to measured write traffic: the factor-2 of
    // Fig. 5. The effect shows when execution time is compute-dominated
    // (many GEMVs per install), so use wide-N GEMMs sharing A.
    const WIDE: &str = r#"
        const int M = 32; const int N = 512;
        float A[M][M]; float B[M][N]; float C[M][N]; float D[M][N]; float E[M][N];
        void kernel() {
          for (int i = 0; i < M; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < M; k++)
                C[i][j] += A[i][k] * B[k][j];
          for (int i = 0; i < M; i++)
            for (int j = 0; j < N; j++)
              for (int k = 0; k < M; k++)
                D[i][j] += A[i][k] * E[k][j];
        }
    "#;
    let run = |fusion: bool| {
        // Naive schedule again — see `writes_with_fusion`.
        let mut opts = CompileOptions::without_dataflow();
        opts.tactics.fusion = fusion;
        let compiled = compile(WIDE, &opts).expect("compiles");
        let init = |name: &str, data: &mut [f32]| {
            let seed = name.len();
            for (i, v) in data.iter_mut().enumerate() {
                *v = ((seed + i * 3) % 5) as f32 - 2.0;
            }
        };
        let r = execute(&compiled, &ExecOptions::default(), &init).expect("runs");
        let acc = r.accel.expect("offloaded");
        (acc.cell_writes as f64, r.wall_time().as_s())
    };
    let (w_fused, t_fused) = run(true);
    let (w_unfused, t_unfused) = run(false);
    assert_eq!(w_unfused, 2.0 * w_fused, "write volume must halve");
    let model = LifetimeModel::default();
    let endurance = 20e6; // mid-range of Fig. 5's x-axis
    let life_fused = model.years(endurance, w_fused / t_fused);
    let life_unfused = model.years(endurance, w_unfused / t_unfused);
    let ratio = life_fused / life_unfused;
    assert!(
        (1.6..=2.1).contains(&ratio),
        "lifetime ratio {ratio} (fused {life_fused}y vs naive {life_unfused}y)"
    );
}

#[test]
fn fused_and_unfused_compute_identical_results() {
    let mut with = CompileOptions::default();
    with.tactics.fusion = true;
    let mut without = CompileOptions::default();
    without.tactics.fusion = false;
    let init = |name: &str, data: &mut [f32]| {
        let seed = name.len();
        for (i, v) in data.iter_mut().enumerate() {
            *v = ((seed + i * 3) % 5) as f32 - 2.0;
        }
    };
    let r1 = execute(&compile(LISTING2, &with).expect("c"), &ExecOptions::default(), &init)
        .expect("runs");
    let r2 = execute(&compile(LISTING2, &without).expect("c"), &ExecOptions::default(), &init)
        .expect("runs");
    assert_eq!(r1.array("C"), r2.array("C"));
    assert_eq!(r1.array("D"), r2.array("D"));
}

// ---- serving-layer endurance: wear as a metered shared resource ----

const SERVE_N: usize = 8;

fn serve_fill(len: usize, seed: usize) -> Vec<f32> {
    (0..len).map(|i| ((seed + i * 7) % 13) as f32 * 0.25 - 1.5).collect()
}

fn serve_mat(ctx: &mut CimContext, mach: &mut Machine, data: &[f32]) -> DevPtr {
    let dev = ctx.cim_malloc(mach, (data.len() * 4) as u64).expect("malloc");
    mach.poke_f32_slice(dev.va, data);
    dev
}

/// One GEMV against a *fresh* stationary operand: every call programs a
/// full install's worth of crossbar cells — the hot-tenant write traffic
/// the wear budget meters.
fn serve_install_op(ctx: &mut CimContext, mach: &mut Machine, seed: usize) {
    let a = serve_mat(ctx, mach, &serve_fill(SERVE_N * SERVE_N, seed));
    let x = serve_mat(ctx, mach, &serve_fill(SERVE_N, seed + 1));
    let y = serve_mat(ctx, mach, &serve_fill(SERVE_N, seed + 2));
    ctx.cim_blas_sgemv(mach, Transpose::No, SERVE_N, SERVE_N, 1.0, a, SERVE_N, x, 0.0, y)
        .expect("gemv");
}

/// Cell writes of one such install, measured on a private context.
fn cells_per_install() -> u64 {
    let mut mach = Machine::new(MachineConfig::test_small());
    let mut ctx =
        CimContext::new(AccelConfig::test_small().with_grid(2, 1), DriverConfig::default(), &mach);
    ctx.cim_init(&mut mach, 0).expect("init");
    serve_install_op(&mut ctx, &mut mach, 3);
    let cells = ctx.accel().stats().cell_writes;
    assert!(cells > 0, "an install must program cells");
    cells
}

/// A tenant past its wear budget is throttled at admission and its
/// lease steered between regions, ping-ponging installs so no single
/// tile absorbs the whole flood: the final per-tile wear is balanced to
/// within one install.
#[test]
fn wear_budget_throttles_and_steers_the_hot_tenant() {
    let per_install = cells_per_install();
    let mut mach = Machine::new(MachineConfig::test_small());
    let mut server = CimServer::new(
        AccelConfig::test_small().with_grid(2, 1),
        DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() },
        ServePolicy { regions: 2, ..Default::default() },
        &mach,
    );
    // Budget spent after two installs; ten more arrive over budget.
    let budget = per_install * 2;
    let mut hot = server.connect(TenantConfig { weight: 1, wear_budget: Some(budget) });
    hot.cim_init(&mut mach, 0).expect("init");
    let hot_tid = hot.tenant().expect("tenant");
    for i in 0..12 {
        serve_install_op(&mut hot, &mut mach, 100 + i * 11);
    }
    hot.cim_sync(&mut mach).expect("sync");

    assert!(hot.stats().wear_throttles > 0, "over-budget calls must pay the wear penalty");
    let usage = server.usage(hot_tid);
    assert!(usage.wear_cells > budget, "the flood spent the budget");
    assert!(usage.wear_throttles > 0 && usage.throttle_ns > 0.0, "ledger records the throttling");
    assert!(usage.steers >= 1, "the lease must have been steered off the worn region");

    // Steering balances the flood across the grid: both tiles absorbed
    // writes, and their totals differ by at most one install (the
    // steer condition moves the lease whenever the other region is
    // strictly less worn).
    let dev = server.device();
    let wear: Vec<u64> = dev.borrow().accel.tile_wear().iter().map(|w| w.cell_writes).collect();
    assert_eq!(wear.len(), 2);
    assert!(wear.iter().all(|&w| w > 0), "both tiles share the flood: {wear:?}");
    let spread = wear[0].abs_diff(wear[1]);
    assert!(
        spread <= per_install,
        "wear spread {spread} exceeds one install ({per_install}): {wear:?}"
    );
}

/// Without budgets, wear lands exactly where each tenant's lease placed
/// it: every region's cell writes equal its lessee's metered wear.
#[test]
fn wear_spread_matches_lease_placement() {
    let mut mach = Machine::new(MachineConfig::test_small());
    let mut server = CimServer::new(
        AccelConfig::test_small().with_grid(2, 1),
        DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() },
        ServePolicy { regions: 2, ..Default::default() },
        &mach,
    );
    let mut busy_tenant = server.connect(TenantConfig::default());
    let mut quiet_tenant = server.connect(TenantConfig::default());
    busy_tenant.cim_init(&mut mach, 0).expect("init");
    quiet_tenant.cim_init(&mut mach, 0).expect("init");
    for i in 0..4 {
        serve_install_op(&mut busy_tenant, &mut mach, 100 + i * 11);
    }
    serve_install_op(&mut quiet_tenant, &mut mach, 900);
    busy_tenant.cim_sync(&mut mach).expect("sync");
    quiet_tenant.cim_sync(&mut mach).expect("sync");

    let busy_tid = busy_tenant.tenant().expect("tenant");
    let quiet_tid = quiet_tenant.tenant().expect("tenant");
    let busy_lease = server.lease_of(busy_tid).expect("lease");
    let quiet_lease = server.lease_of(quiet_tid).expect("lease");
    assert!(!busy_lease.overlaps(&quiet_lease), "two tenants, two regions: disjoint");
    let dev = server.device();
    let dev = dev.borrow();
    assert_eq!(
        dev.accel.region_cell_writes(&busy_lease),
        server.usage(busy_tid).wear_cells,
        "all of the busy tenant's wear sits on its own lease"
    );
    assert_eq!(
        dev.accel.region_cell_writes(&quiet_lease),
        server.usage(quiet_tid).wear_cells,
        "and the quiet tenant's on its"
    );
    assert!(
        server.usage(busy_tid).wear_cells > server.usage(quiet_tid).wear_cells,
        "4 installs outweigh 1"
    );
}

/// A single tenant served through the scheduler is byte-identical to
/// the pre-serving private-context baseline, with no extra wear: the
/// serving layer costs an idle tenant nothing.
#[test]
fn single_tenant_serving_is_byte_identical_to_private_context() {
    let run = |serving: bool| -> (Vec<u32>, u64) {
        let mut mach = Machine::new(MachineConfig::test_small());
        let accel_cfg = AccelConfig::test_small().with_grid(2, 1);
        let drv_cfg = DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() };
        let mut server;
        let mut ctx = if serving {
            server = CimServer::new(accel_cfg, drv_cfg, ServePolicy::default(), &mach);
            server.connect(TenantConfig::default())
        } else {
            CimContext::new(accel_cfg, drv_cfg, &mach)
        };
        ctx.cim_init(&mut mach, 0).expect("init");
        // One resident stationary operand, several varying inputs — the
        // standard inference shape.
        let a = serve_mat(&mut ctx, &mut mach, &serve_fill(SERVE_N * SERVE_N, 3));
        let mut bits = Vec::new();
        let mut ys = Vec::new();
        for i in 0..4 {
            let x = serve_mat(&mut ctx, &mut mach, &serve_fill(SERVE_N, 11 + i * 17));
            let y = serve_mat(&mut ctx, &mut mach, &serve_fill(SERVE_N, 7 + i * 5));
            ctx.cim_blas_sgemv(
                &mut mach,
                Transpose::No,
                SERVE_N,
                SERVE_N,
                1.25,
                a,
                SERVE_N,
                x,
                0.5,
                y,
            )
            .expect("gemv");
            ys.push(y);
        }
        ctx.cim_sync(&mut mach).expect("sync");
        for y in ys {
            let mut out = vec![0f32; SERVE_N];
            mach.peek_f32_slice(y.va, &mut out);
            bits.extend(out.iter().map(|v| v.to_bits()));
        }
        let cell_writes = ctx.accel().stats().cell_writes;
        (bits, cell_writes)
    };
    let (private_bits, private_writes) = run(false);
    let (served_bits, served_writes) = run(true);
    assert_eq!(served_bits, private_bits, "serving must not change a single bit");
    assert!(
        served_writes <= private_writes,
        "a lease never adds installs: served {served_writes} vs private {private_writes}"
    );
}
