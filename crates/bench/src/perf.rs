//! Machine-readable performance records (`BENCH_<id>.json`).
//!
//! `cargo run --release -p dssp-bench --bin repro -- bench --id <id>` measures the
//! training-step hot path (workspace vs. allocating), a few tensor kernels, and the
//! parallel figure-sweep runner, then writes the results as a flat JSON file so the
//! repo's performance trajectory can be tracked across PRs (`BENCH_pr2.json` is the
//! committed record for the PR that introduced the tiled kernels; CI regenerates
//! `BENCH_smoke.json` on every run).
//!
//! The JSON is rendered by hand: the offline serde shim provides derive macros only,
//! and the format here is a dozen scalar fields — not worth a serializer.

use dssp_core::pool::{default_threads, parallel_map};
use dssp_core::presets::{alexnet_homogeneous, dssp_reference, ssp_sweep, Scale};
use dssp_nn::models::{downsized_alexnet, resnet_cifar};
use dssp_nn::{Model, Sequential, SoftmaxCrossEntropy, Workspace};
use dssp_ps::PolicyKind;
use dssp_sim::Simulation;
use dssp_tensor::{uniform_init, Tensor};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Training-step timings measured on commit `b789784` (the last commit before the
/// tiled `*_into` kernels and workspace reuse landed), on the single-core reference
/// container this repo is benchmarked in. Measured with the same min-of-5 methodology
/// as [`collect`], alternating baseline and post-PR binaries in the same time window
/// to cancel host interference. They cannot be re-measured after the refactor, so
/// they are recorded here once; later PRs should compare committed `BENCH_*.json`
/// files instead.
pub const PRE_PR_STEP_MS: &[(&str, f64)] = &[
    ("downsized_alexnet", 1.793),
    ("resnet50_like", 2.705),
    ("resnet110_like", 5.439),
];

/// One measured training-step workload.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Model name (matches the Criterion bench IDs in `benches/training.rs`).
    pub model: String,
    /// Milliseconds per full forward/backward step on the workspace path.
    pub workspace_ms: f64,
    /// Milliseconds per step on the legacy allocating path.
    pub allocating_ms: f64,
}

/// One measured tensor kernel.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Kernel label, e.g. `matmul_256x256x256`.
    pub kernel: String,
    /// Microseconds per call.
    pub micros: f64,
}

/// The full performance record written to `BENCH_<id>.json`.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Record identifier (`pr2`, `smoke`, ...).
    pub id: String,
    /// Worker threads the parallel sweep used.
    pub sweep_threads: usize,
    /// Wall-clock seconds for the quick-scale policy sweep run serially.
    pub sweep_serial_s: f64,
    /// Wall-clock seconds for the same sweep on the thread pool.
    pub sweep_parallel_s: f64,
    /// Training-step measurements.
    pub steps: Vec<StepRecord>,
    /// Kernel measurements.
    pub kernels: Vec<KernelRecord>,
    /// Whether to embed [`PRE_PR_STEP_MS`] and per-model speedups in the JSON. Only
    /// valid for records produced on the same reference container the baselines were
    /// measured on (the committed `pr2` record); CI smoke records on other hosts must
    /// not claim a comparison against them.
    pub compare_to_pre_pr: bool,
}

fn time_per_iter_ms(iters: u32, mut body: impl FnMut()) -> f64 {
    // Warm up allocator caches / branch predictors and let `*_into` buffers grow to
    // their steady-state size before timing.
    for _ in 0..3 {
        body();
    }
    // Take the minimum over several timed batches: the minimum is robust against
    // interference from other tenants of the machine, which the mean is not.
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            body();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e3 / f64::from(iters));
    }
    best
}

fn step_record(name: &str, iters: u32, mut build: impl FnMut() -> Sequential) -> StepRecord {
    let x = uniform_init(&[32, 3, 8, 8], 1.0, 3);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let loss = SoftmaxCrossEntropy::new();

    let mut model = build();
    let mut ws = Workspace::new();
    let mut grad = Tensor::default();
    let workspace_ms = time_per_iter_ms(iters, || {
        let logits = model.forward_ws(&x, true, &mut ws);
        let l = loss.loss_and_grad_into(logits, &labels, &mut grad);
        model.zero_grads();
        model.backward_ws(&grad, &mut ws);
        black_box(l);
    });

    let mut model = build();
    let allocating_ms = time_per_iter_ms(iters, || {
        let logits = model.forward(&x, true);
        let (l, grad) = loss.loss_and_grad(&logits, &labels);
        model.zero_grads();
        model.backward(&grad);
        black_box(l);
    });

    StepRecord {
        model: name.to_string(),
        workspace_ms,
        allocating_ms,
    }
}

fn kernel_records(iters: u32) -> Vec<KernelRecord> {
    let mut out = Vec::new();
    let a = uniform_init(&[256, 256], 1.0, 1);
    let b = uniform_init(&[256, 256], 1.0, 2);
    let mut c = Tensor::default();
    let mut push = |name: &str, ms: f64| {
        out.push(KernelRecord {
            kernel: name.to_string(),
            micros: ms * 1e3,
        })
    };
    push(
        "matmul_256x256x256",
        time_per_iter_ms(iters, || a.matmul_into(&b, &mut c)),
    );
    push(
        "matmul_tn_256x256x256",
        time_per_iter_ms(iters, || a.matmul_tn_into(&b, &mut c)),
    );
    push(
        "matmul_nt_256x256x256",
        time_per_iter_ms(iters, || a.matmul_nt_into(&b, &mut c)),
    );
    let img = uniform_init(&[32, 8, 8, 8], 1.0, 5);
    let spec = dssp_tensor::Conv2dSpec {
        in_channels: 8,
        out_channels: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let mut cols = Tensor::default();
    push(
        "im2col_32x8x8x8_k3",
        time_per_iter_ms(iters, || {
            dssp_tensor::im2col_into(&img, 8, 8, &spec, &mut cols)
        }),
    );
    out
}

fn sweep_policies() -> Vec<PolicyKind> {
    let mut policies = vec![PolicyKind::Bsp, PolicyKind::Asp, dssp_reference()];
    policies.extend(ssp_sweep());
    policies
}

fn run_sweep(threads: usize) -> f64 {
    let policies = sweep_policies();
    let start = Instant::now();
    let traces = parallel_map(policies.len(), threads, |i| {
        Simulation::new(alexnet_homogeneous(policies[i], Scale::Quick)).run()
    });
    black_box(traces);
    start.elapsed().as_secs_f64()
}

/// Runs every measurement and assembles the record. `iters` scales the per-workload
/// sample counts (CI smoke uses a small number).
pub fn collect(id: &str, iters: u32) -> BenchRecord {
    let steps = vec![
        step_record("downsized_alexnet", iters, || downsized_alexnet(8, 10, 1)),
        step_record("resnet50_like", iters, || resnet_cifar(8, 4, 20, 1)),
        step_record("resnet110_like", iters, || resnet_cifar(8, 9, 20, 1)),
    ];
    let kernels = kernel_records(iters.max(20));
    let threads = default_threads();
    let sweep_serial_s = run_sweep(1);
    let sweep_parallel_s = run_sweep(threads);
    BenchRecord {
        compare_to_pre_pr: id == "pr2",
        id: id.to_string(),
        sweep_threads: threads,
        sweep_serial_s,
        sweep_parallel_s,
        steps,
        kernels,
    }
}

impl BenchRecord {
    /// Renders the record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"id\": \"{}\",", self.id);
        if self.compare_to_pre_pr {
            let _ = writeln!(
                s,
                "  \"pre_pr_baseline\": {{\"commit\": \"b789784\", \"note\": \"allocating-path training-step ms before the tiled kernels landed, measured on the same reference container\"}},"
            );
        }
        let _ = writeln!(s, "  \"training_steps\": [");
        for (i, step) in self.steps.iter().enumerate() {
            let baseline = if self.compare_to_pre_pr {
                PRE_PR_STEP_MS
                    .iter()
                    .find(|(m, _)| *m == step.model)
                    .map(|&(_, ms)| ms)
            } else {
                None
            };
            let comma = if i + 1 == self.steps.len() { "" } else { "," };
            let _ = write!(
                s,
                "    {{\"model\": \"{}\", \"workspace_ms\": {:.4}, \"allocating_ms\": {:.4}, \"workspace_steps_per_s\": {:.1}",
                step.model,
                step.workspace_ms,
                step.allocating_ms,
                1e3 / step.workspace_ms
            );
            if let Some(base) = baseline {
                let _ = write!(
                    s,
                    ", \"pre_pr_ms\": {:.4}, \"speedup_vs_pre_pr\": {:.2}",
                    base,
                    base / step.workspace_ms
                );
            }
            let _ = writeln!(s, "}}{comma}");
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"kernels\": [");
        for (i, k) in self.kernels.iter().enumerate() {
            let comma = if i + 1 == self.kernels.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"kernel\": \"{}\", \"micros_per_call\": {:.2}}}{comma}",
                k.kernel, k.micros
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"figure_sweep\": {{");
        let _ = writeln!(s, "    \"policies\": {},", sweep_policies().len());
        let _ = writeln!(s, "    \"threads\": {},", self.sweep_threads);
        let _ = writeln!(s, "    \"serial_s\": {:.3},", self.sweep_serial_s);
        let _ = writeln!(s, "    \"parallel_s\": {:.3},", self.sweep_parallel_s);
        let _ = writeln!(
            s,
            "    \"speedup\": {:.2}",
            self.sweep_serial_s / self.sweep_parallel_s.max(1e-9)
        );
        let _ = writeln!(s, "  }}");
        let _ = writeln!(s, "}}");
        s
    }

    /// A short human-readable summary for the console.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for step in &self.steps {
            let _ = writeln!(
                s,
                "{:<20} workspace {:>8.3} ms/step   allocating {:>8.3} ms/step",
                step.model, step.workspace_ms, step.allocating_ms
            );
        }
        let _ = writeln!(
            s,
            "figure sweep: serial {:.2} s, parallel {:.2} s on {} thread(s)",
            self.sweep_serial_s, self.sweep_parallel_s, self.sweep_threads
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "ad-hoc hot-path timing probes; run manually with --nocapture"]
    fn kernel_probes() {
        // Residual-block conv shape of the resnet analogues: 32x8x4x4 input, k3 pad1.
        let spec = dssp_tensor::Conv2dSpec {
            in_channels: 8,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let img = uniform_init(&[32, 8, 4, 4], 1.0, 7);
        let mut cols_t = Tensor::default();
        let mut plane = Vec::new();
        let imt = time_per_iter_ms(2000, || {
            dssp_tensor::im2col_t_into(&img, 4, 4, &spec, &mut plane, &mut cols_t)
        });
        let gcols_t = uniform_init(&[72, 512], 1.0, 8);
        let mut gin = Tensor::default();
        let c2it = time_per_iter_ms(2000, || {
            dssp_tensor::col2im_t_into(&gcols_t, 32, 4, 4, &spec, &mut plane, &mut gin)
        });
        let g_t = uniform_init(&[8, 512], 1.0, 11);
        let mut dwb = Tensor::default();
        let dw_t = time_per_iter_ms(2000, || g_t.matmul_nt_into(&cols_t, &mut dwb));
        let wt = uniform_init(&[72, 8], 1.0, 12);
        let mut gct = Tensor::default();
        let gc_t = time_per_iter_ms(2000, || wt.matmul_into(&g_t, &mut gct));
        println!(
            "block conv pieces: im2col_t {:.1}us  col2im_t {:.1}us  dW-nt {:.1}us  gradcols-ikj {:.1}us",
            imt * 1e3,
            c2it * 1e3,
            dw_t * 1e3,
            gc_t * 1e3
        );

        use dssp_nn::Layer;
        let mut layer = dssp_nn::Conv2dLayer::new(spec, 4, 4, 1);
        let mut scratch = dssp_nn::LayerScratch::default();
        let mut out = Tensor::default();
        let mut gi = Tensor::default();
        let go = uniform_init(&[32, 8, 4, 4], 1.0, 9);
        let fw = time_per_iter_ms(1000, || {
            layer.forward_ws(&img, &mut out, true, &mut scratch)
        });
        let bw = time_per_iter_ms(1000, || layer.backward_ws(&go, &mut gi, &mut scratch));
        println!(
            "block conv layer: forward {:.1}us  backward {:.1}us",
            fw * 1e3,
            bw * 1e3
        );

        let x = uniform_init(&[32, 3, 8, 8], 1.0, 21);
        let mut model = resnet_cifar(8, 9, 20, 1);
        let mut ws = Workspace::new();
        let f = time_per_iter_ms(200, || {
            black_box(model.forward_ws(&x, true, &mut ws));
        });
        let logits = model.forward_ws(&x, true, &mut ws);
        let mut grad = Tensor::default();
        grad.assign(logits);
        grad.fill(1.0);
        let bk = time_per_iter_ms(200, || {
            model.zero_grads();
            black_box(model.backward_ws(&grad, &mut ws));
        });
        println!("resnet110 full: forward {:.3}ms  backward {:.3}ms", f, bk);
    }

    #[test]
    fn record_renders_valid_looking_json() {
        let mut record = BenchRecord {
            id: "pr2".into(),
            sweep_threads: 2,
            sweep_serial_s: 1.0,
            sweep_parallel_s: 0.5,
            steps: vec![StepRecord {
                model: "downsized_alexnet".into(),
                workspace_ms: 1.5,
                allocating_ms: 3.0,
            }],
            kernels: vec![KernelRecord {
                kernel: "matmul".into(),
                micros: 10.0,
            }],
            compare_to_pre_pr: true,
        };
        let json = record.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"speedup\": 2.00"));
        assert!(json.contains("\"speedup_vs_pre_pr\""));
        assert!(json.contains("\"workspace_ms\": 1.5000"));
        assert!(record.summary().contains("downsized_alexnet"));

        // Records from other hosts (CI smoke) must not claim a baseline comparison.
        record.id = "smoke".into();
        record.compare_to_pre_pr = false;
        let smoke = record.to_json();
        assert_eq!(smoke.matches('{').count(), smoke.matches('}').count());
        assert!(!smoke.contains("pre_pr"));
    }
}
