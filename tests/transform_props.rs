//! Property tests: polyhedral transformations preserve semantics on
//! randomly generated affine programs.

use proptest::prelude::*;
use tdo_ir::interp::{run, PureBackend};
use tdo_ir::{ArrayId, Program};
use tdo_poly::codegen::rebuild_program;
use tdo_poly::scop::extract;
use tdo_poly::transforms::{interchange, tile};

/// Builds a GEMM-like program with configurable extents and coefficients;
/// random parameters give a family of affine programs with reductions.
fn build_program(m: usize, n: usize, k: usize, alpha: i32, acc_shift: bool) -> (String, Program) {
    let shift = if acc_shift { " + 1.0" } else { "" };
    let src = format!(
        r#"
        float A[{m}][{k}]; float B[{k}][{n}]; float C[{m}][{n}];
        void kernel() {{
          for (int i = 0; i < {m}; i++)
            for (int j = 0; j < {n}; j++)
              for (int k = 0; k < {k}; k++)
                C[i][j] += {alpha}.0 * A[i][k] * B[k][j]{shift};
        }}
        "#
    );
    let prog = tdo_lang::compile(&src).expect("compiles");
    (src, prog)
}

fn run_all(prog: &Program) -> Vec<Vec<f32>> {
    let mut be = PureBackend::for_program(prog);
    for (i, d) in prog.arrays.iter().enumerate() {
        let data: Vec<f32> =
            (0..d.elem_count()).map(|j| ((i * 17 + j * 5) % 7) as f32 - 3.0).collect();
        be.set_array(ArrayId(i), &data);
    }
    run(prog, &mut be).expect("runs");
    be.into_arrays()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiling_preserves_semantics(
        m in 1usize..10,
        n in 1usize..10,
        k in 1usize..10,
        tm in 1i64..6,
        tn in 1i64..6,
        tk in 1i64..6,
        perm_pick in 0usize..6,
        alpha in -3i32..4,
        acc_shift in proptest::bool::ANY,
    ) {
        let perms: [[usize; 3]; 6] =
            [[0,1,2],[0,2,1],[1,0,2],[1,2,0],[2,0,1],[2,1,0]];
        let (_, mut prog) = build_program(m, n, k, alpha, acc_shift);
        let scop = extract(&prog).expect("affine");
        let reference = run_all(&prog);
        let tiled = tile(&mut prog, &scop.tree, &[tm, tn, tk], &perms[perm_pick])
            .expect("tileable");
        let tiled_prog = rebuild_program(&prog, &scop, &tiled);
        tdo_ir::verify::verify(&tiled_prog).expect("well-formed");
        let got = run_all(&tiled_prog);
        // Compare original arrays only (tiling adds no arrays).
        prop_assert_eq!(&got[..reference.len()], &reference[..]);
    }

    #[test]
    fn interchange_preserves_semantics(
        m in 1usize..10,
        n in 1usize..10,
        k in 1usize..10,
        a in 0usize..3,
        b in 0usize..3,
        alpha in -3i32..4,
    ) {
        let (_, prog) = build_program(m, n, k, alpha, false);
        let scop = extract(&prog).expect("affine");
        let reference = run_all(&prog);
        if let Some(swapped) = interchange(&scop.tree, a, b) {
            let new_prog = rebuild_program(&prog, &scop, &swapped);
            tdo_ir::verify::verify(&new_prog).expect("well-formed");
            prop_assert_eq!(run_all(&new_prog), reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn offload_rewrite_preserves_semantics(
        m in 1usize..9,
        n in 1usize..9,
        k in 1usize..9,
        alpha in 1i32..4,
    ) {
        // Through the full tactics pass and the pure backend's functional
        // call semantics.
        let (src, _) = build_program(m, n, k, alpha, false);
        let host = tdo_cim::compile(&src, &tdo_cim::CompileOptions::host_only()).expect("c");
        let cim = tdo_cim::compile(&src, &tdo_cim::CompileOptions::default()).expect("c");
        prop_assume!(cim.offloaded());
        let reference = run_all(&host.prog);
        let got = run_all(&cim.prog);
        prop_assert_eq!(&got[..reference.len()], &reference[..]);
    }
}
