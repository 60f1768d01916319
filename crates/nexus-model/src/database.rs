//! The management-plane model database.
//!
//! §5: "Models are stored in a model database and may be accompanied by
//! either a sample data set or a batching profile." On ingest, the database
//! fingerprints every prefix of the schema and records which earlier models
//! it shares prefixes with — the information the epoch scheduler uses to
//! form prefix-batched sessions.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use nexus_profile::BatchingProfile;

use crate::prefix::{find_prefix_groups, PrefixGroup};
use crate::schema::ModelSchema;

/// Opaque identifier of a model in the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ModelId(pub u32);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A model as stored in the database: schema plus measured batching profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredModel {
    /// Database identifier.
    pub id: ModelId,
    /// The layer schema.
    pub schema: ModelSchema,
    /// Batching profile on the cluster's GPU type.
    pub profile: BatchingProfile,
}

/// Errors from database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatabaseError {
    /// A model with the same name is already ingested.
    DuplicateName(String),
    /// The referenced model id does not exist.
    UnknownModel(ModelId),
}

impl std::fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatabaseError::DuplicateName(name) => {
                write!(f, "model named {name:?} already ingested")
            }
            DatabaseError::UnknownModel(id) => write!(f, "unknown model {id}"),
        }
    }
}

impl std::error::Error for DatabaseError {}

/// The model database.
#[derive(Debug, Clone, Default)]
pub struct ModelDatabase {
    models: Vec<StoredModel>,
    names: HashSet<String>,
}

impl ModelDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        ModelDatabase::default()
    }

    /// Ingests a model with its batching profile, returning its id.
    ///
    /// Mirrors the paper's upload path: the profile either accompanied the
    /// model or was produced by the profiler beforehand.
    pub fn ingest(
        &mut self,
        schema: ModelSchema,
        profile: BatchingProfile,
    ) -> Result<ModelId, DatabaseError> {
        if !self.names.insert(schema.name().to_string()) {
            return Err(DatabaseError::DuplicateName(schema.name().to_string()));
        }
        let id = ModelId(self.models.len() as u32);
        self.models.push(StoredModel {
            id,
            schema,
            profile,
        });
        Ok(id)
    }

    /// Number of ingested models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Looks up a model by id.
    pub fn get(&self, id: ModelId) -> Result<&StoredModel, DatabaseError> {
        self.models
            .get(id.0 as usize)
            .ok_or(DatabaseError::UnknownModel(id))
    }

    /// All stored models.
    pub fn models(&self) -> &[StoredModel] {
        &self.models
    }

    /// Finds prefix groups among an arbitrary subset of stored models.
    ///
    /// Group member indices are translated back to [`ModelId`]s.
    fn prefix_groups_among(
        &self,
        ids: &[ModelId],
    ) -> Result<Vec<(PrefixGroup, Vec<ModelId>)>, DatabaseError> {
        let mut schemas = Vec::with_capacity(ids.len());
        for &id in ids {
            schemas.push(&self.get(id)?.schema);
        }
        Ok(find_prefix_groups(&schemas)
            .into_iter()
            .map(|g| {
                let members = g.members.iter().map(|&i| ids[i]).collect();
                (g, members)
            })
            .collect())
    }

    /// Finds prefix groups among all stored models.
    pub fn prefix_groups(&self) -> Vec<(PrefixGroup, Vec<ModelId>)> {
        let ids: Vec<ModelId> = self.models.iter().map(|m| m.id).collect();
        self.prefix_groups_among(&ids).expect("ids are all valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use nexus_profile::catalog::{LENET5, RESNET50};

    fn db_with_variants() -> (ModelDatabase, Vec<ModelId>) {
        let mut db = ModelDatabase::new();
        let base = zoo::resnet50();
        let profile = RESNET50.profile_1080ti();
        let mut ids = vec![db.ingest(base.clone(), profile.clone()).unwrap()];
        for v in 1..=3 {
            let schema = base.specialize(format!("resnet50-game{v}"), 1, v);
            ids.push(db.ingest(schema, profile.clone()).unwrap());
        }
        (db, ids)
    }

    #[test]
    fn ingest_assigns_sequential_ids_and_name_lookup() {
        let (db, ids) = db_with_variants();
        assert_eq!(db.len(), 4);
        assert_eq!(ids, vec![ModelId(0), ModelId(1), ModelId(2), ModelId(3)]);
        assert_eq!(db.get(ModelId(2)).unwrap().schema.name(), "resnet50-game2");
        // Names resolve: an ingested name is taken, a new one is not.
        let profile = RESNET50.profile_1080ti();
        let taken = zoo::resnet50().specialize("resnet50-game2", 1, 9);
        assert!(db.clone().ingest(taken, profile.clone()).is_err());
        let fresh = zoo::resnet50().specialize("missing", 1, 9);
        assert!(db.clone().ingest(fresh, profile).is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = ModelDatabase::new();
        let schema = zoo::lenet5();
        let profile = LENET5.profile_1080ti();
        db.ingest(schema.clone(), profile.clone()).unwrap();
        let err = db.ingest(schema, profile).unwrap_err();
        assert_eq!(err, DatabaseError::DuplicateName("lenet5".into()));
    }

    #[test]
    fn unknown_id_is_an_error() {
        let db = ModelDatabase::new();
        assert_eq!(
            db.get(ModelId(5)).unwrap_err(),
            DatabaseError::UnknownModel(ModelId(5))
        );
    }

    #[test]
    fn prefix_groups_found_on_whole_database() {
        let (mut db, _) = db_with_variants();
        // An unrelated model must not join the group.
        db.ingest(
            zoo::darknet53(),
            nexus_profile::catalog::DARKNET53.profile_1080ti(),
        )
        .unwrap();
        let groups = db.prefix_groups();
        assert_eq!(groups.len(), 1);
        let (group, members) = &groups[0];
        assert_eq!(members.len(), 4);
        assert_eq!(
            group.prefix_len,
            db.get(ModelId(0)).unwrap().schema.num_layers() - 1
        );
    }

    #[test]
    fn prefix_groups_among_subset() {
        let (db, ids) = db_with_variants();
        // Only two of the variants: still a group of 2.
        let groups = db.prefix_groups_among(&ids[1..3]).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1, vec![ids[1], ids[2]]);
    }
}
