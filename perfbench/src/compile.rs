//! Compilation, timed per compiler layer when tracing.

use crate::trace::{Layer, Tracer};
use tdo_cim::{CompileError, CompileOptions, CompiledProgram};
use tdo_tactics::{PassCtx, PassManager};

/// Compiles `src`. Untraced, this is one `tdo_cim::compile` call. Traced,
/// it makes the same calls `tdo_cim::compile` makes, in the same order
/// (`tdo_lang::compile`, `tdo_poly::scop::extract`, `PassManager::run`),
/// and times each one under its layer.
///
/// # Errors
///
/// Front-end failures, as `tdo_cim::compile`.
pub fn compile(
    src: &str,
    opts: &CompileOptions,
    tr: &mut Tracer,
) -> Result<CompiledProgram, CompileError> {
    if !tr.on() {
        return tdo_cim::compile(src, opts);
    }
    let source_ir = tr.span(Layer::Lang, || tdo_lang::compile(src)).map_err(CompileError)?;
    tdo_ir::verify::verify(&source_ir).expect("front-end emits well-formed IR");
    let unoptimized = |source_ir: tdo_ir::Program, scop_skipped| CompiledProgram {
        prog: source_ir.clone(),
        source_ir,
        report: None,
        passes: Vec::new(),
        scop_skipped,
    };
    if !opts.enable_loop_tactics {
        return Ok(unoptimized(source_ir, None));
    }
    let scop = match tr.span(Layer::Poly, || tdo_poly::scop::extract(&source_ir)) {
        Ok(scop) => scop,
        Err(e) => return Ok(unoptimized(source_ir, Some(e))),
    };
    let (prog, report, passes) = tr.span(Layer::Tactics, || {
        let manager = PassManager::from_ids(&opts.passes);
        let mut ctx = PassCtx::new(&source_ir, Some(&scop), &opts.tactics);
        let passes = manager.run(&mut ctx);
        (ctx.prog, ctx.offload, passes)
    });
    tdo_ir::verify::verify(&prog).expect("tactics emit well-formed IR");
    Ok(CompiledProgram { prog, source_ir, report, passes, scop_skipped: None })
}
