//! Correctness oracle for the training stream.
//!
//! Every generated sample has distinct features, so a decoded batch row
//! identifies its source by a fingerprint of its bits. The oracle checks
//! that each row is bit-equal to that source and that an epoch yields
//! every uploaded sample exactly once.

use std::collections::HashMap;

use diesel_train::data::Sample;
use diesel_train::tensor::Matrix;

fn fingerprint(label: usize, features: &[f32]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ label as u64;
    for f in features {
        h = (h ^ u64::from(f.to_bits())).wrapping_mul(0x0100_0000_01B3).rotate_left(29);
    }
    h
}

/// Tracks one epoch at a time against the generated samples.
#[derive(Debug)]
pub struct Oracle {
    samples: Vec<Sample>,
    by_print: HashMap<u64, usize>,
    seen_in: Vec<u64>,
    epoch: u64,
    seen: usize,
}

impl Oracle {
    /// Index `samples`; fails if two share a fingerprint (the oracle
    /// could not tell them apart).
    pub fn new(samples: Vec<Sample>) -> Result<Self, String> {
        let mut by_print = HashMap::with_capacity(samples.len());
        for (i, s) in samples.iter().enumerate() {
            if by_print.insert(fingerprint(s.label, &s.features), i).is_some() {
                return Err(format!("generated sample {i} repeats an earlier fingerprint"));
            }
        }
        let n = samples.len();
        Ok(Oracle { samples, by_print, seen_in: vec![0; n], epoch: 0, seen: 0 })
    }

    /// The generated samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Start checking a new epoch.
    pub fn begin_epoch(&mut self) {
        self.epoch += 1;
        self.seen = 0;
    }

    /// Check one decoded batch.
    pub fn check_batch(&mut self, x: &Matrix, labels: &[usize]) -> Result<(), String> {
        if x.rows != labels.len() {
            return Err(format!("batch has {} rows but {} labels", x.rows, labels.len()));
        }
        for (r, &label) in labels.iter().enumerate() {
            let row = x.row(r);
            let i = *self
                .by_print
                .get(&fingerprint(label, row))
                .ok_or_else(|| format!("row {r} (label {label}) matches no uploaded sample"))?;
            let src = &self.samples[i];
            let equal = src.label == label
                && src.features.len() == row.len()
                && src.features.iter().zip(row).all(|(a, b)| a.to_bits() == b.to_bits());
            if !equal {
                return Err(format!("row {r} differs from sample {i}"));
            }
            if self.seen_in[i] == self.epoch {
                return Err(format!("sample {i} delivered twice in one epoch"));
            }
            self.seen_in[i] = self.epoch;
            self.seen += 1;
        }
        Ok(())
    }

    /// Finish the epoch: every sample must have been seen.
    pub fn end_epoch(&self) -> Result<(), String> {
        if self.seen != self.samples.len() {
            return Err(format!("epoch delivered {} of {} samples", self.seen, self.samples.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_train::data::{to_batch, SyntheticSpec};

    fn oracle(n: usize) -> Oracle {
        let spec = SyntheticSpec { dim: 8, classes: 4, separation: 2.0, noise: 1.0, seed: 5 };
        Oracle::new(spec.generate(n)).expect("distinct samples")
    }

    fn batch(o: &Oracle, idx: &[usize]) -> (Matrix, Vec<usize>) {
        let refs: Vec<&Sample> = idx.iter().map(|&i| &o.samples()[i]).collect();
        to_batch(&refs)
    }

    #[test]
    fn a_full_epoch_in_any_order_passes() {
        let mut o = oracle(10);
        for _ in 0..2 {
            o.begin_epoch();
            for part in [[7, 2, 9, 0, 4], [1, 3, 5, 6, 8]] {
                let (x, l) = batch(&o, &part);
                o.check_batch(&x, &l).unwrap();
            }
            o.end_epoch().unwrap();
        }
    }

    #[test]
    fn a_duplicated_sample_is_rejected() {
        let mut o = oracle(6);
        o.begin_epoch();
        let (x, l) = batch(&o, &[0, 1, 2]);
        o.check_batch(&x, &l).unwrap();
        let (x, l) = batch(&o, &[3, 1]);
        assert!(o.check_batch(&x, &l).unwrap_err().contains("twice"));
    }

    #[test]
    fn a_corrupted_sample_is_rejected() {
        let mut o = oracle(6);
        o.begin_epoch();
        let (mut x, l) = batch(&o, &[0, 1, 2]);
        x.data[5] = f32::from_bits(x.data[5].to_bits() ^ 1);
        assert!(o.check_batch(&x, &l).is_err());
        let (x, mut l) = batch(&o, &[3]);
        l[0] = (l[0] + 1) % 4;
        assert!(o.check_batch(&x, &l).is_err(), "a wrong label is corruption too");
    }

    #[test]
    fn a_missing_sample_fails_the_epoch() {
        let mut o = oracle(4);
        o.begin_epoch();
        let (x, l) = batch(&o, &[0, 1, 2]);
        o.check_batch(&x, &l).unwrap();
        assert!(o.end_epoch().is_err());
    }
}
