//! Order statistics over samples, and the quiet quarter of a measured
//! phase that the end-to-end timings are taken over.

/// Length of the windows a measured phase is cut into, seconds.
pub const WINDOW_S: f64 = 1.0;

/// The ops of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Each op: when it started, seconds into the phase, and its wall
    /// time, ms.
    pub ops: Vec<(f64, f64)>,
    /// Length of the phase, seconds.
    pub seconds: f64,
}

impl Phase {
    /// The op times of the phase's quietest quarter, and how long that
    /// quarter lasted. The phase is cut into [`WINDOW_S`] windows (an op
    /// belongs to the window it started in; the last window also takes
    /// the remainder), the windows are ranked by their median op time, and
    /// the ops of the fastest quarter of them (at least one window) are
    /// pooled.
    ///
    /// On a 2-vCPU VM of a shared Xeon, every op runs up to 1.7x slower in
    /// episodes lasting from seconds to minutes. Pooling the quiet quarter
    /// keeps a run's timings steady while at least a quarter of it is
    /// quiet; an effect that shows in fewer than a quarter of the windows
    /// is not seen.
    pub fn quiet_quarter(&self) -> (Vec<f64>, f64) {
        let n = ((self.seconds / WINDOW_S).floor() as usize).max(1);
        let mut windows = vec![Vec::new(); n];
        for &(at_s, ms) in &self.ops {
            windows[((at_s / WINDOW_S) as usize).min(n - 1)].push(ms);
        }
        let mut ranked: Vec<(f64, usize)> = windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                // A window no op started in was spent inside one slow op.
                let key = if w.is_empty() {
                    f64::INFINITY
                } else {
                    median(w)
                };
                (key, i)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let last_s = self.seconds - (n - 1) as f64 * WINDOW_S;
        let mut op_ms = Vec::new();
        let mut seconds = 0.0;
        for &(_, i) in &ranked[..(n / 4).max(1)] {
            op_ms.extend_from_slice(&windows[i]);
            seconds += if i == n - 1 { last_s } else { WINDOW_S };
        }
        (op_ms, seconds)
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `xs` by the nearest-rank rule on the
/// sorted samples; 0 for no samples.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * p).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive values; 0 for no samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
