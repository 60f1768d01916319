//! Model schemas: named layer chains with rolling prefix hashes.
//!
//! §6.3: "Nexus computes the hash of every sub-tree of the model schema and
//! compares it with the existing models in the database to identify common
//! sub-trees when a model is uploaded." For the (overwhelmingly common)
//! chain-structured networks the catalog contains, the root-anchored
//! sub-trees are exactly the layer prefixes, so the schema maintains a
//! rolling hash per prefix length and common-prefix detection is a hash
//! comparison per depth.

use serde::{Deserialize, Serialize};

use crate::hashfn::Fnv1a;
use crate::layer::Layer;

/// A named, ordered chain of layers with precomputed prefix fingerprints.
///
/// # Examples
///
/// ```
/// use nexus_model::zoo;
///
/// let base = zoo::resnet50();
/// let variant = base.specialize("resnet50-icons", 1, 7);
/// // Specializing only the output layer leaves all but one layer shared.
/// assert_eq!(base.common_prefix_len(&variant), base.num_layers() - 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSchema {
    name: String,
    layers: Vec<Layer>,
    /// `prefix_hashes[i]` fingerprints `layers[0..=i]` (structure+weights).
    prefix_hashes: Vec<u64>,
}

impl ModelSchema {
    /// Creates a schema from a layer chain.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "a model needs at least one layer");
        let mut prefix_hashes = Vec::with_capacity(layers.len());
        let mut hasher = Fnv1a::new();
        for layer in &layers {
            layer.hash_identity(&mut hasher);
            prefix_hashes.push(hasher.finish());
        }
        ModelSchema {
            name: name.into(),
            layers,
            prefix_hashes,
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layer chain.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Fingerprint of the first `len` layers.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds the layer count.
    pub fn prefix_hash(&self, len: usize) -> u64 {
        assert!(
            len >= 1 && len <= self.layers.len(),
            "prefix length {len} out of range 1..={}",
            self.layers.len()
        );
        self.prefix_hashes[len - 1]
    }

    /// Length of the longest shared prefix with `other`, in layers.
    ///
    /// Zero means the models share nothing and cannot prefix-batch.
    pub fn common_prefix_len(&self, other: &ModelSchema) -> usize {
        let upper = self.layers.len().min(other.layers.len());
        // Rolling hashes are monotone: if prefixes of length k differ, all
        // longer prefixes differ, so binary search the boundary.
        let (mut lo, mut hi) = (0usize, upper + 1);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.prefix_hashes[mid - 1] == other.prefix_hashes[mid - 1] {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Total weight bytes.
    pub(crate) fn total_param_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.param_bytes).sum()
    }

    /// Total forward compute per input, in GFLOPs.
    pub(crate) fn total_gflops(&self) -> f64 {
        self.layers.iter().map(|l| l.gflops).sum()
    }

    /// Weight bytes in the first `len` layers.
    pub(crate) fn prefix_param_bytes(&self, len: usize) -> u64 {
        self.layers[..len].iter().map(|l| l.param_bytes).sum()
    }

    /// Weight bytes in the layers after the first `len`.
    pub(crate) fn suffix_param_bytes(&self, len: usize) -> u64 {
        self.layers[len..].iter().map(|l| l.param_bytes).sum()
    }

    /// GFLOPs in the first `len` layers.
    pub(crate) fn prefix_gflops(&self, len: usize) -> f64 {
        self.layers[..len].iter().map(|l| l.gflops).sum()
    }

    /// GFLOPs in the layers after the first `len`.
    pub fn suffix_gflops(&self, len: usize) -> f64 {
        self.layers[len..].iter().map(|l| l.gflops).sum()
    }

    /// Fraction of total compute in the first `len` layers (0 when the model
    /// has no compute at all).
    pub(crate) fn prefix_flops_fraction(&self, len: usize) -> f64 {
        let total = self.total_gflops();
        if total == 0.0 {
            0.0
        } else {
            self.prefix_gflops(len) / total
        }
    }

    /// Produces a transfer-learned variant: the last `retrain_layers` layers
    /// get fresh weights (`param_version`), everything before is shared
    /// byte-for-byte with `self`.
    ///
    /// This is the §2.2 specialization pattern: "altering ('re-training')
    /// just the output layers of the models".
    ///
    /// # Panics
    ///
    /// Panics if `retrain_layers` is zero or not smaller than the layer
    /// count (a fully retrained model shares nothing and should be built
    /// with [`ModelSchema::new`]).
    pub fn specialize(
        &self,
        new_name: impl Into<String>,
        retrain_layers: usize,
        param_version: u64,
    ) -> ModelSchema {
        assert!(
            retrain_layers >= 1 && retrain_layers < self.layers.len(),
            "retrain_layers must be in 1..{}",
            self.layers.len()
        );
        assert!(param_version != 0, "version 0 is reserved for base weights");
        let split = self.layers.len() - retrain_layers;
        let mut layers = self.layers.clone();
        for layer in &mut layers[split..] {
            layer.param_version = param_version;
        }
        ModelSchema::new(new_name, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    fn toy_schema(name: &str) -> ModelSchema {
        ModelSchema::new(
            name,
            vec![
                Layer::new(
                    LayerKind::Input {
                        channels: 3,
                        height: 224,
                        width: 224,
                    },
                    0,
                    0.0,
                ),
                Layer::new(
                    LayerKind::Conv {
                        out_channels: 64,
                        kernel: 7,
                        stride: 2,
                    },
                    1_000_000,
                    1.0,
                ),
                Layer::new(LayerKind::Fc { out_features: 100 }, 400_000, 0.5),
                Layer::new(LayerKind::Softmax { classes: 100 }, 0, 0.01),
            ],
        )
    }

    #[test]
    fn identical_schemas_share_everything() {
        let a = toy_schema("a");
        let b = toy_schema("b");
        assert_eq!(a.prefix_hash(4), b.prefix_hash(4));
        assert_eq!(a.common_prefix_len(&b), 4);
    }

    #[test]
    fn specialization_shares_all_but_retrained_layers() {
        let base = toy_schema("base");
        let spec1 = base.specialize("spec1", 2, 1);
        assert_eq!(base.common_prefix_len(&spec1), 2);
        let spec2 = base.specialize("spec2", 1, 2);
        assert_eq!(base.common_prefix_len(&spec2), 3);
        // Two different specializations share the base prefix with each
        // other too.
        assert_eq!(spec1.common_prefix_len(&spec2), 2);
    }

    #[test]
    fn same_version_specializations_are_identical() {
        let base = toy_schema("base");
        let a = base.specialize("a", 1, 9);
        let b = base.specialize("b", 1, 9);
        assert_eq!(a.common_prefix_len(&b), 4);
    }

    #[test]
    fn accounting_splits_add_up() {
        let s = toy_schema("m");
        for len in 0..=s.num_layers() {
            assert_eq!(
                s.prefix_param_bytes(len) + s.suffix_param_bytes(len),
                s.total_param_bytes()
            );
            let f = s.prefix_gflops(len) + s.suffix_gflops(len);
            assert!((f - s.total_gflops()).abs() < 1e-12);
        }
        assert!((s.prefix_flops_fraction(4) - 1.0).abs() < 1e-12);
        assert_eq!(s.prefix_flops_fraction(0), 0.0);
    }

    #[test]
    fn prefix_hashes_are_monotone_fingerprints() {
        let base = toy_schema("base");
        let variant = base.specialize("v", 1, 3);
        let shared = base.common_prefix_len(&variant);
        for len in 1..=shared {
            assert_eq!(base.prefix_hash(len), variant.prefix_hash(len));
        }
        for len in shared + 1..=base.num_layers() {
            assert_ne!(base.prefix_hash(len), variant.prefix_hash(len));
        }
    }

    #[test]
    #[should_panic(expected = "retrain_layers must be in")]
    fn cannot_retrain_entire_model() {
        let base = toy_schema("base");
        let _ = base.specialize("all", 4, 1);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_schema_rejected() {
        let _ = ModelSchema::new("empty", vec![]);
    }
}
