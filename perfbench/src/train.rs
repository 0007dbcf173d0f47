//! The `stream_update` model: a COLLAB-width HAP classifier (hidden 32,
//! clusters [16, 8]), randomly initialised from the seed and trained for
//! [`EPOCHS`] epochs by `hap_train::train` (the per-sample trainer the
//! table binaries reach through `runners::classification_accuracy`) on
//! seeded COLLAB-like graphs of 40–110 nodes. Their degree features are
//! `CORPUS_FEATURE_DIM` wide, so the trained model embeds the retrieval
//! corpus as it is. Training is part of the workload's set-up; the
//! traced run reports its forward, backward and eval times per sample.

use crate::gen::{collab_dataset, stream};
use crate::report::Report;
use hap_autograd::ParamStore;
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_snapshot::ModelSnapshot;
use hap_train::{train, TrainConfig};
use std::cell::RefCell;
use std::time::Instant;

pub const HIDDEN: usize = 32;
pub const CLUSTERS: [usize; 2] = [16, 8];
/// The learning rate the table binaries use for HAP.
const LR: f64 = 0.003;
const EPOCHS: usize = 2;

/// Per-sample times of one training run, in µs.
#[derive(Default)]
pub struct Timings {
    /// Inside the loss closure (`HapClassifier::loss`).
    pub forward_us: Vec<f64>,
    /// From the loss closure's return to its next call within an epoch:
    /// backward plus the optimiser's share.
    pub backward_us: Vec<f64>,
    /// The eval closure (`HapClassifier::predict`).
    pub eval_us: Vec<f64>,
}

pub struct Trained {
    pub snapshot: ModelSnapshot,
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f64>,
    /// Training losses that were not finite.
    pub nonfinite: usize,
    /// Wall time of `hap_data::collab`, in seconds.
    pub generate_s: f64,
    pub timings: Timings,
}

/// Loss-closure bookkeeping: closes a sample's backward time at the next
/// call of the same epoch.
#[derive(Default)]
struct Probe {
    n_train: usize,
    calls: usize,
    last_return: Option<Instant>,
    nonfinite: usize,
    timings: Timings,
}

pub fn trained_model(seed: u64) -> Trained {
    let t = Instant::now();
    let ds = collab_dataset(seed);
    let generate_s = t.elapsed().as_secs_f64();
    let mut rng = stream(seed, "stream_update/model");
    let mut store = ParamStore::<f64>::new();
    let cfg = HapConfig::new(ds.feature_dim, HIDDEN).with_clusters(&CLUSTERS);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let clf = HapClassifier::new(&mut store, model, ds.num_classes, &mut rng);
    let (train_idx, val_idx, test_idx) =
        hap_data::split_811(ds.samples.len(), &mut stream(seed, "stream_update/split"));
    let config = TrainConfig {
        epochs: EPOCHS,
        batch_size: 8,
        lr: LR,
        seed: stream(seed, "stream_update/train").next_u64(),
        patience: None,
        grad_clip: Some(5.0),
        log_every: 0,
    };
    let probe = RefCell::new(Probe {
        n_train: train_idx.len(),
        ..Probe::default()
    });
    let report = train(
        &store,
        &config,
        &train_idx,
        &val_idx,
        &test_idx,
        &mut |tape, i, ctx| {
            let entry = Instant::now();
            let mut p = probe.borrow_mut();
            if let (false, Some(ret)) = (p.calls.is_multiple_of(p.n_train), p.last_return) {
                p.timings
                    .backward_us
                    .push((entry - ret).as_secs_f64() * 1e6);
            }
            p.calls += 1;
            drop(p);
            let x = &ds.samples[i];
            let loss = clf.loss(tape, &x.graph, &x.features, x.label, ctx);
            let ret = Instant::now();
            let mut p = probe.borrow_mut();
            p.timings.forward_us.push((ret - entry).as_secs_f64() * 1e6);
            p.last_return = Some(ret);
            if !tape.scalar(loss).is_finite() {
                p.nonfinite += 1;
            }
            loss
        },
        &mut |i, ctx| {
            let t = Instant::now();
            let x = &ds.samples[i];
            let ok = clf.predict(&x.graph, &x.features, ctx) == x.label;
            probe
                .borrow_mut()
                .timings
                .eval_us
                .push(t.elapsed().as_secs_f64() * 1e6);
            ok
        },
    );
    let probe = probe.into_inner();
    Trained {
        snapshot: ModelSnapshot::capture(&cfg, ds.num_classes, &store),
        epoch_losses: report.train_losses,
        nonfinite: probe.nonfinite,
        generate_s,
        timings: probe.timings,
    }
}

impl Trained {
    /// Every loss finite, and the last epoch's mean loss below the
    /// first's.
    pub fn check(&self, report: &mut Report) {
        for _ in 0..self.nonfinite {
            report.fail("non-finite training loss");
        }
        let (first, last) = (self.epoch_losses[0], self.epoch_losses[EPOCHS - 1]);
        // A NaN mean fails too.
        if last.partial_cmp(&first) != Some(std::cmp::Ordering::Less) {
            report.fail(&format!(
                "last epoch's mean loss {last} is not below the first's {first}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_features_are_as_wide_as_the_corpus_features() {
        assert_eq!(collab_dataset(1).feature_dim, hap_data::CORPUS_FEATURE_DIM);
    }

    #[test]
    fn training_is_seed_determined_and_passes_its_check() {
        let a = trained_model(3);
        let mut report = Report::new();
        a.check(&mut report);
        assert!(report.correct);
        assert_eq!(a.epoch_losses.len(), EPOCHS);
        assert_eq!(a.snapshot.to_bytes(), trained_model(3).snapshot.to_bytes());
        let n_train = a.timings.forward_us.len() / EPOCHS;
        assert_eq!(a.timings.backward_us.len(), EPOCHS * (n_train - 1));
    }
}
