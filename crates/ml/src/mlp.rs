//! A small multi-layer perceptron with SGD/Adam, from scratch.
//!
//! §III-B's "optimized neural network had an input layer for the x, y, z
//! coordinates and the one-hot encoded MAC addresses, sigmoid activation
//! function, hidden layer with 16 fully connected nodes, linear activation
//! function, output layer with a single node for the prediction, and Adam
//! optimizer", trained on normalized RSS values. [`Mlp::paper_tuned`] is
//! exactly that network.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use aerorem_numerics::dist;
use aerorem_numerics::kernels::matmul_ikj_into;

use crate::{validate_matrix_y, FeatureMatrix, MlError, Regressor};

/// Neuron activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear output layer).
    Identity,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *activated* output `a`.
    fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Identity => 1.0,
        }
    }
}

/// Gradient-descent flavour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam (Kingma & Ba) — the paper's choice.
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay.
        beta1: f64,
        /// Second-moment decay.
        beta2: f64,
        /// Division-by-zero guard.
        eps: f64,
    },
}

impl Optimizer {
    /// Adam with the canonical defaults and the given learning rate.
    pub fn adam(lr: f64) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden layers as `(width, activation)` pairs.
    pub hidden: Vec<(usize, Activation)>,
    /// Output activation (the paper uses a linear output).
    pub output_activation: Activation,
    /// Optimizer.
    pub optimizer: Optimizer,
    /// Full passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Weight-init and shuffle seed.
    pub seed: u64,
    /// Z-score the targets before training (the paper normalizes RSS).
    pub normalize_targets: bool,
}

impl MlpConfig {
    /// The paper's tuned network: 16 sigmoid hidden nodes, linear output,
    /// Adam.
    pub fn paper_tuned() -> Self {
        MlpConfig {
            hidden: vec![(16, Activation::Sigmoid)],
            output_activation: Activation::Identity,
            optimizer: Optimizer::adam(0.01),
            epochs: 300,
            batch_size: 32,
            seed: 0x2206,
            normalize_targets: true,
        }
    }
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self::paper_tuned()
    }
}

#[derive(Debug, Clone)]
struct Layer {
    /// Row-major weights: `w[out][in]`.
    w: Vec<Vec<f64>>,
    b: Vec<f64>,
    activation: Activation,
    // Adam state.
    mw: Vec<Vec<f64>>,
    vw: Vec<Vec<f64>>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, activation: Activation, rng: &mut StdRng) -> Self {
        // Xavier/Glorot initialization.
        let scale = (2.0 / (inputs + outputs) as f64).sqrt();
        let w: Vec<Vec<f64>> = (0..outputs)
            .map(|_| (0..inputs).map(|_| dist::normal(rng, 0.0, scale)).collect())
            .collect();
        Layer {
            mw: vec![vec![0.0; inputs]; outputs],
            vw: vec![vec![0.0; inputs]; outputs],
            mb: vec![0.0; outputs],
            vb: vec![0.0; outputs],
            b: vec![0.0; outputs],
            w,
            activation,
        }
    }

    /// Per-sample forward pass into a reusable buffer. This accumulation
    /// order (`w * x` summed in ascending input index, then `+ b`, then the
    /// activation) is the reference the batched forward must reproduce
    /// bit-for-bit.
    fn forward_into(&self, input: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.w.iter().zip(&self.b).map(|(row, b)| {
            let z: f64 = row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>() + b;
            self.activation.apply(z)
        }));
    }

    /// Matrix-level forward pass over `n` rows of flat row-major `input`
    /// (`n × in_w`), writing `n × out_w` activations to `out`. The weight
    /// matrix is transposed once per call into `wt` so the cache-blocked
    /// i-k-j kernel streams contiguously; since every `out[i][j]` is
    /// accumulated in ascending `k` from `0.0` — the same order as
    /// [`Layer::forward_into`]'s dot product, with IEEE multiplication
    /// commuting `x * w` — the batch is bit-identical to per-sample forward.
    fn forward_batch_into(
        &self,
        input: &[f64],
        n: usize,
        in_w: usize,
        wt: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        let out_w = self.b.len();
        wt.clear();
        wt.resize(in_w * out_w, 0.0);
        for (o, row) in self.w.iter().enumerate() {
            for (k, &w) in row.iter().enumerate() {
                wt[k * out_w + o] = w;
            }
        }
        out.clear();
        out.resize(n * out_w, 0.0);
        matmul_ikj_into(input, n, in_w, wt, out_w, out);
        for row in out.chunks_exact_mut(out_w) {
            for (v, &b) in row.iter_mut().zip(&self.b) {
                *v = self.activation.apply(*v + b);
            }
        }
    }
}

/// Reusable training buffers: per-layer activations, backprop deltas, and
/// gradient accumulators. Allocated once per `fit` so the epoch inner loop
/// performs no heap allocation at all.
#[derive(Debug, Clone)]
struct TrainScratch {
    /// `acts[0]` is the input copy; `acts[i + 1]` is layer `i`'s output.
    acts: Vec<Vec<f64>>,
    delta: Vec<f64>,
    next_delta: Vec<f64>,
    grad_w: Vec<Vec<Vec<f64>>>,
    grad_b: Vec<Vec<f64>>,
}

impl TrainScratch {
    fn new(layers: &[Layer], dim: usize) -> Self {
        let mut acts = Vec::with_capacity(layers.len() + 1);
        acts.push(vec![0.0; dim]);
        for l in layers {
            acts.push(vec![0.0; l.b.len()]);
        }
        TrainScratch {
            acts,
            delta: Vec::new(),
            next_delta: Vec::new(),
            grad_w: layers
                .iter()
                .map(|l| vec![vec![0.0; l.w[0].len()]; l.w.len()])
                .collect(),
            grad_b: layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    fn zero_grads(&mut self) {
        for gw in &mut self.grad_w {
            for row in gw {
                row.fill(0.0);
            }
        }
        for gb in &mut self.grad_b {
            gb.fill(0.0);
        }
    }
}

/// The MLP regressor.
///
/// # Examples
///
/// ```
/// use aerorem_ml::mlp::{Mlp, MlpConfig};
/// use aerorem_ml::Regressor;
///
/// # fn main() -> Result<(), aerorem_ml::MlError> {
/// // Learn y = 2x on a toy set.
/// let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 50.0]).collect();
/// let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0]).collect();
/// let mut net = Mlp::new(MlpConfig::paper_tuned());
/// net.fit(&x, &y)?;
/// let p = net.predict_one(&[0.5])?;
/// assert!((p - 1.0).abs() < 0.2, "got {p}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<Layer>,
    dim: Option<usize>,
    target_mean: f64,
    target_std: f64,
    adam_t: u64,
}

impl Mlp {
    /// Creates an unfitted network.
    pub fn new(config: MlpConfig) -> Self {
        Mlp {
            config,
            layers: Vec::new(),
            dim: None,
            target_mean: 0.0,
            target_std: 1.0,
            adam_t: 0,
        }
    }

    /// The paper's tuned architecture.
    pub fn paper_tuned() -> Self {
        Self::new(MlpConfig::paper_tuned())
    }

    fn forward_all(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.to_vec());
        for layer in &self.layers {
            let mut next = Vec::new();
            layer.forward_into(acts.last().expect("non-empty"), &mut next);
            acts.push(next);
        }
        acts
    }

    /// One gradient step on the mini-batch given by `chunk` (indices into
    /// the flat row-major `x`/`targets`). Returns the batch loss. All
    /// buffers live in `s`, so the inner training loop allocates nothing.
    fn train_batch(
        &mut self,
        x: &[f64],
        dim: usize,
        targets: &[f64],
        chunk: &[usize],
        s: &mut TrainScratch,
    ) -> f64 {
        let n = chunk.len() as f64;
        s.zero_grads();
        let mut loss = 0.0;
        for &idx in chunk {
            s.acts[0].copy_from_slice(&x[idx * dim..(idx + 1) * dim]);
            for (li, layer) in self.layers.iter().enumerate() {
                let (prev, rest) = s.acts.split_at_mut(li + 1);
                layer.forward_into(&prev[li], &mut rest[0]);
            }
            let out = s.acts.last().expect("output layer")[0];
            let err = out - targets[idx];
            loss += err * err;
            // Backprop: delta at output.
            s.delta.clear();
            s.delta
                .push(err * self.config.output_activation.derivative_from_output(out));
            for li in (0..self.layers.len()).rev() {
                let input = &s.acts[li];
                for (o, &d) in s.delta.iter().enumerate() {
                    for (gw, &a) in s.grad_w[li][o].iter_mut().zip(input) {
                        *gw += d * a;
                    }
                    s.grad_b[li][o] += d;
                }
                if li > 0 {
                    let layer = &self.layers[li];
                    let below = &s.acts[li]; // activated output of layer li-1
                    s.next_delta.clear();
                    s.next_delta.resize(below.len(), 0.0);
                    for (o, &d) in s.delta.iter().enumerate() {
                        for (nd, &w) in s.next_delta.iter_mut().zip(&layer.w[o]) {
                            *nd += d * w;
                        }
                    }
                    let act_below = self.layers[li - 1].activation;
                    for (nd, &a) in s.next_delta.iter_mut().zip(below) {
                        *nd *= act_below.derivative_from_output(a);
                    }
                    std::mem::swap(&mut s.delta, &mut s.next_delta);
                }
            }
        }
        // Apply the optimizer.
        self.adam_t += 1;
        let t = self.adam_t as f64;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for o in 0..layer.w.len() {
                for (i, gw) in s.grad_w[li][o].iter().enumerate() {
                    let g = gw / n;
                    layer.w[o][i] -= step(
                        self.config.optimizer,
                        g,
                        &mut layer.mw[o][i],
                        &mut layer.vw[o][i],
                        t,
                    );
                }
                let g = s.grad_b[li][o] / n;
                layer.b[o] -= step(
                    self.config.optimizer,
                    g,
                    &mut layer.mb[o],
                    &mut layer.vb[o],
                    t,
                );
            }
        }
        loss / n
    }
}

/// Computes the parameter update for one scalar gradient.
fn step(opt: Optimizer, g: f64, m: &mut f64, v: &mut f64, t: f64) -> f64 {
    match opt {
        Optimizer::Sgd { lr } => lr * g,
        Optimizer::Adam {
            lr,
            beta1,
            beta2,
            eps,
        } => {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / (1.0 - beta1.powf(t));
            let v_hat = *v / (1.0 - beta2.powf(t));
            lr * m_hat / (v_hat.sqrt() + eps)
        }
    }
}

impl Mlp {
    /// The training loop over flat row-major features, which
    /// [`Regressor::fit_batch`] hands over without a copy.
    fn fit_flat(&mut self, x: &[f64], n_rows: usize, dim: usize, y: &[f64]) -> Result<(), MlError> {
        if self.config.batch_size == 0 {
            return Err(MlError::InvalidHyperparameter {
                name: "batch_size",
                reason: "must be at least 1",
            });
        }
        if self.config.hidden.iter().any(|(w, _)| *w == 0) {
            return Err(MlError::InvalidHyperparameter {
                name: "hidden",
                reason: "layer widths must be positive",
            });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // The layers below are rebuilt, so until training succeeds the
        // model is not fitted.
        self.dim = None;

        // Target normalization (the paper normalizes RSS values).
        if self.config.normalize_targets {
            let mean = y.iter().sum::<f64>() / y.len() as f64;
            let var = y.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / y.len() as f64;
            self.target_mean = mean;
            self.target_std = var.sqrt().max(1e-9);
        } else {
            self.target_mean = 0.0;
            self.target_std = 1.0;
        }
        let targets: Vec<f64> = y
            .iter()
            .map(|t| (t - self.target_mean) / self.target_std)
            .collect();

        // Build layers.
        self.layers.clear();
        self.adam_t = 0;
        let mut prev = dim;
        for &(width, act) in &self.config.hidden {
            self.layers.push(Layer::new(prev, width, act, &mut rng));
            prev = width;
        }
        self.layers
            .push(Layer::new(prev, 1, self.config.output_activation, &mut rng));

        // Mini-batch training. All per-sample and per-batch buffers are
        // allocated once here and reused for every epoch.
        let mut scratch = TrainScratch::new(&self.layers, dim);
        let mut order: Vec<usize> = (0..n_rows).collect();
        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.config.batch_size) {
                let loss = self.train_batch(x, dim, &targets, chunk, &mut scratch);
                if !loss.is_finite() {
                    return Err(MlError::Numerical("training loss diverged".into()));
                }
            }
        }
        self.dim = Some(dim);
        Ok(())
    }
}

impl Regressor for Mlp {
    fn fit_batch(&mut self, xs: &FeatureMatrix, y: &[f64]) -> Result<(), MlError> {
        let dim = validate_matrix_y(xs, y)?;
        self.fit_flat(xs.as_slice(), xs.rows(), dim, y)
    }

    fn predict_one(&self, x: &[f64]) -> Result<f64, MlError> {
        let dim = self.dim.ok_or(MlError::NotFitted)?;
        if x.len() != dim {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                found: x.len(),
            });
        }
        let out = self.forward_all(x).last().expect("output layer")[0];
        Ok(out * self.target_std + self.target_mean)
    }

    fn predict_batch(&self, xs: &FeatureMatrix) -> Result<Vec<f64>, MlError> {
        let dim = self.dim.ok_or(MlError::NotFitted)?;
        if xs.dim() != dim {
            return Err(MlError::DimensionMismatch {
                expected: dim,
                found: xs.dim(),
            });
        }
        let n = xs.rows();
        if n == 0 {
            return Ok(Vec::new());
        }
        // Whole-batch forward: one cache-blocked matmul per layer, two
        // ping-pong activation buffers, one transposed-weight scratch — no
        // per-sample allocation.
        let (first, rest) = self.layers.split_first().expect("fitted net has layers");
        let mut wt = Vec::new();
        let mut cur = Vec::new();
        let mut next = Vec::new();
        first.forward_batch_into(xs.as_slice(), n, dim, &mut wt, &mut cur);
        let mut in_w = first.b.len();
        for layer in rest {
            layer.forward_batch_into(&cur, n, in_w, &mut wt, &mut next);
            std::mem::swap(&mut cur, &mut next);
            in_w = layer.b.len();
        }
        debug_assert_eq!(in_w, 1, "output layer has a single node");
        Ok(cur
            .iter()
            .map(|&o| o * self.target_std + self.target_mean)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean squared error of `net`'s predictions over the rows `x`.
    fn mse(net: &Mlp, x: &[Vec<f64>], y: &[f64]) -> Result<f64, MlError> {
        let preds = x
            .iter()
            .map(|row| net.predict_one(row))
            .collect::<Result<Vec<f64>, MlError>>()?;
        Ok(preds
            .iter()
            .zip(y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64)
    }

    #[test]
    fn learns_linear_function() {
        let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 80.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] - 1.0).collect();
        let mut net = Mlp::paper_tuned();
        net.fit(&x, &y).unwrap();
        for q in [0.1, 0.5, 0.9] {
            let p = net.predict_one(&[q]).unwrap();
            assert!((p - (3.0 * q - 1.0)).abs() < 0.25, "at {q}: {p}");
        }
    }

    #[test]
    fn learns_nonlinear_function() {
        // A sigmoid hidden layer can fit a smooth bump.
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![i as f64 / 120.0 * 4.0 - 2.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| (-r[0] * r[0]).exp()).collect();
        let mut net = Mlp::new(MlpConfig {
            epochs: 800,
            ..MlpConfig::paper_tuned()
        });
        net.fit(&x, &y).unwrap();
        let mse = mse(&net, &x, &y).unwrap();
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn adam_beats_sgd_on_budget() {
        let x: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0 + r[1]).collect();
        let budget = 60;
        let mut adam = Mlp::new(MlpConfig {
            epochs: budget,
            ..MlpConfig::paper_tuned()
        });
        adam.fit(&x, &y).unwrap();
        let mut sgd = Mlp::new(MlpConfig {
            epochs: budget,
            optimizer: Optimizer::Sgd { lr: 0.01 },
            ..MlpConfig::paper_tuned()
        });
        sgd.fit(&x, &y).unwrap();
        let mse_adam = mse(&adam, &x, &y).unwrap();
        let mse_sgd = mse(&sgd, &x, &y).unwrap();
        assert!(
            mse_adam < mse_sgd,
            "adam {mse_adam} should beat sgd {mse_sgd} on a short budget"
        );
    }

    #[test]
    fn training_is_seeded() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mut a = Mlp::new(MlpConfig {
            epochs: 20,
            ..MlpConfig::paper_tuned()
        });
        let mut b = Mlp::new(MlpConfig {
            epochs: 20,
            ..MlpConfig::paper_tuned()
        });
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(
            a.predict_one(&[3.3]).unwrap(),
            b.predict_one(&[3.3]).unwrap()
        );
    }

    #[test]
    fn normalization_recovers_dbm_scale() {
        // Targets around −73 dBm: without normalization a sigmoid net
        // struggles; with it, predictions land in the right range.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 50.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| -80.0 + 10.0 * r[0]).collect();
        let mut net = Mlp::paper_tuned();
        net.fit(&x, &y).unwrap();
        let p = net.predict_one(&[0.5]).unwrap();
        assert!((p - -75.0).abs() < 1.5, "got {p}");
    }

    #[test]
    fn a_diverged_fit_leaves_the_model_unfitted() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 1e3]).collect();
        let y: Vec<f64> = (0..40).map(|i| i as f64 * 1e6).collect();
        let mut net = Mlp::new(MlpConfig {
            optimizer: Optimizer::Sgd { lr: 1e3 },
            normalize_targets: false,
            epochs: 50,
            ..MlpConfig::paper_tuned()
        });
        assert!(matches!(net.fit(&x, &y), Err(MlError::Numerical(_))));
        assert_eq!(net.predict_one(&[1.0]), Err(MlError::NotFitted));
    }

    #[test]
    fn lifecycle_and_validation() {
        let net = Mlp::paper_tuned();
        assert_eq!(net.predict_one(&[1.0]), Err(MlError::NotFitted));
        let mut net = Mlp::new(MlpConfig {
            batch_size: 0,
            ..MlpConfig::paper_tuned()
        });
        assert!(net.fit(&[vec![1.0]], &[1.0]).is_err());
        let mut net = Mlp::new(MlpConfig {
            hidden: vec![(0, Activation::Relu)],
            ..MlpConfig::paper_tuned()
        });
        assert!(net.fit(&[vec![1.0]], &[1.0]).is_err());
        let mut net = Mlp::new(MlpConfig {
            epochs: 1,
            ..MlpConfig::paper_tuned()
        });
        net.fit(&[vec![1.0], vec![2.0]], &[1.0, 2.0]).unwrap();
        assert!(matches!(
            net.predict_one(&[1.0, 2.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn activations_behave() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Identity.apply(0.7), 0.7);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        // Derivatives at characteristic points.
        assert!((Activation::Sigmoid.derivative_from_output(0.5) - 0.25).abs() < 1e-12);
        assert_eq!(Activation::Identity.derivative_from_output(5.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert!((Activation::Tanh.derivative_from_output(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_batch_matches_predict_one_bits() {
        // Multi-dim input plus a deep net so the matmul path crosses layer
        // boundaries; exact equality, not tolerance.
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                vec![
                    i as f64 / 60.0,
                    (i % 7) as f64 * 0.1,
                    if i % 2 == 0 { 1.0 } else { 0.0 },
                ]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| -70.0 + 5.0 * r[0] - 2.0 * r[1]).collect();
        let mut net = Mlp::new(MlpConfig {
            hidden: vec![(16, Activation::Sigmoid), (8, Activation::Tanh)],
            epochs: 15,
            ..MlpConfig::paper_tuned()
        });
        net.fit(&x, &y).unwrap();
        let fm = crate::FeatureMatrix::from_rows(&x).unwrap();
        let batch = net.predict_batch(&fm).unwrap();
        assert_eq!(batch.len(), x.len());
        for (row, b) in x.iter().zip(&batch) {
            assert_eq!(net.predict_one(row).unwrap(), *b);
        }
    }

    #[test]
    fn deeper_network_trains() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0] * 6.0).sin()).collect();
        let mut net = Mlp::new(MlpConfig {
            hidden: vec![(16, Activation::Tanh), (8, Activation::Tanh)],
            epochs: 600,
            ..MlpConfig::paper_tuned()
        });
        net.fit(&x, &y).unwrap();
        let mse = mse(&net, &x, &y).unwrap();
        assert!(mse < 0.05, "deep net mse {mse}");
    }
}
