//! A synthetic ECRIC cancer registry (DESIGN.md §5: the real registry is
//! NHS-confidential, so the reproduction generates a registry with the
//! same schema and the cardinalities the MDT portal exercises — regions,
//! hospitals, MDTs, patients, tumours and treatments).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use safeweb_relstore::{CellValue, ColumnDef, ColumnType, Database, Schema};

/// Sizing and seeding of the synthetic registry.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Number of regions (the paper's deployment covers the East of
    /// England — one region — but the portal compares across regions).
    pub regions: usize,
    /// Hospitals per region.
    pub hospitals_per_region: usize,
    /// MDTs per hospital.
    pub mdts_per_hospital: usize,
    /// Patients per MDT.
    pub patients_per_mdt: usize,
    /// RNG seed for reproducible data.
    pub seed: u64,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            regions: 2,
            hospitals_per_region: 3,
            mdts_per_hospital: 2,
            patients_per_mdt: 25,
            seed: 0x05af_e3eb,
        }
    }
}

const CANCER_SITES: &[&str] = &[
    "breast",
    "lung",
    "colorectal",
    "prostate",
    "ovary",
    "melanoma",
    "lymphoma",
];
const TREATMENTS: &[&str] = &[
    "surgery",
    "chemotherapy",
    "radiotherapy",
    "hormone",
    "watchful",
];
const STAGES: &[&str] = &["I", "II", "III", "IV"];

/// Builds the registry database (tables: `regions`, `hospitals`, `mdts`,
/// `patients`, `tumours`, `treatments`).
pub fn generate(config: &RegistryConfig) -> Database {
    let db = Database::new("ecric-registry");
    create_schema(&db);
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut mdt_id = 0i64;
    let mut patient_id = 0i64;
    let mut tumour_id = 0i64;
    let mut treatment_id = 0i64;
    let mut hospital_id = 0i64;

    for region in 0..config.regions {
        let region_name = format!("region-{region}");
        db.insert(
            "regions",
            vec![(region as i64).into(), region_name.clone().into()],
        )
        .expect("fresh region id");
        for h in 0..config.hospitals_per_region {
            hospital_id += 1;
            let hospital_name = format!("hospital-{region}-{h}");
            db.insert(
                "hospitals",
                vec![
                    hospital_id.into(),
                    hospital_name.clone().into(),
                    (region as i64).into(),
                ],
            )
            .expect("fresh hospital id");
            for m in 0..config.mdts_per_hospital {
                mdt_id += 1;
                let mdt_name = format!("mdt-{region}-{h}-{m}");
                // Deterministic clinic assignment: MDTs at the same
                // hospital treat different cancer sites, which the §5.2
                // "inappropriate access checks" experiment depends on.
                let clinic = CANCER_SITES[(mdt_id as usize - 1) % CANCER_SITES.len()];
                db.insert(
                    "mdts",
                    vec![
                        mdt_id.into(),
                        mdt_name.clone().into(),
                        hospital_id.into(),
                        (region as i64).into(),
                        clinic.into(),
                    ],
                )
                .expect("fresh mdt id");
                for _ in 0..config.patients_per_mdt {
                    patient_id += 1;
                    let birth_year = rng.gen_range(1930..1990) as i64;
                    // A minority of records have missing fields, giving the
                    // completeness metric something to measure (F2).
                    let name: CellValue = if rng.gen_bool(0.9) {
                        format!("patient-{patient_id}").into()
                    } else {
                        CellValue::Null
                    };
                    db.insert(
                        "patients",
                        vec![
                            patient_id.into(),
                            name,
                            birth_year.into(),
                            mdt_id.into(),
                            hospital_id.into(),
                        ],
                    )
                    .expect("fresh patient id");

                    tumour_id += 1;
                    let site = clinic;
                    let stage: CellValue = if rng.gen_bool(0.85) {
                        STAGES[rng.gen_range(0..STAGES.len())].into()
                    } else {
                        CellValue::Null
                    };
                    db.insert(
                        "tumours",
                        vec![
                            tumour_id.into(),
                            patient_id.into(),
                            site.into(),
                            stage,
                            (2000 + rng.gen_range(0..11) as i64).into(),
                        ],
                    )
                    .expect("fresh tumour id");

                    if rng.gen_bool(0.8) {
                        treatment_id += 1;
                        let kind = TREATMENTS[rng.gen_range(0..TREATMENTS.len())];
                        db.insert(
                            "treatments",
                            vec![
                                treatment_id.into(),
                                tumour_id.into(),
                                kind.into(),
                                (2000 + rng.gen_range(0..11) as i64).into(),
                            ],
                        )
                        .expect("fresh treatment id");
                    }
                }
            }
        }
    }
    db
}

fn create_schema(db: &Database) {
    db.create_table(
        "regions",
        Schema::new(
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
            ],
            "id",
        ),
    )
    .expect("fresh db");
    db.create_table(
        "hospitals",
        Schema::new(
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("region_id", ColumnType::Int),
            ],
            "id",
        ),
    )
    .expect("fresh db");
    db.create_table(
        "mdts",
        Schema::new(
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("hospital_id", ColumnType::Int),
                ColumnDef::new("region_id", ColumnType::Int),
                ColumnDef::new("clinic", ColumnType::Text),
            ],
            "id",
        ),
    )
    .expect("fresh db");
    db.create_table(
        "patients",
        Schema::new(
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::nullable("name", ColumnType::Text),
                ColumnDef::new("birth_year", ColumnType::Int),
                ColumnDef::new("mdt_id", ColumnType::Int),
                ColumnDef::new("hospital_id", ColumnType::Int),
            ],
            "id",
        ),
    )
    .expect("fresh db");
    db.create_table(
        "tumours",
        Schema::new(
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("patient_id", ColumnType::Int),
                ColumnDef::new("site", ColumnType::Text),
                ColumnDef::nullable("stage", ColumnType::Text),
                ColumnDef::new("diagnosed", ColumnType::Int),
            ],
            "id",
        ),
    )
    .expect("fresh db");
    db.create_table(
        "treatments",
        Schema::new(
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("tumour_id", ColumnType::Int),
                ColumnDef::new("kind", ColumnType::Text),
                ColumnDef::new("started", ColumnType::Int),
            ],
            "id",
        ),
    )
    .expect("fresh db");
}

/// Metadata about one MDT, read back from the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdtInfo {
    /// Registry id.
    pub id: i64,
    /// Name, e.g. `mdt-0-1-0`.
    pub name: String,
    /// Owning hospital id.
    pub hospital_id: i64,
    /// Owning region id.
    pub region_id: i64,
    /// The clinic (cancer site) the MDT treats.
    pub clinic: String,
}

/// Lists every MDT in the registry.
pub fn list_mdts(db: &Database) -> Vec<MdtInfo> {
    db.select("mdts", |_| true)
        .expect("mdts table exists")
        .into_iter()
        .map(|row| MdtInfo {
            id: row.int("id").expect("id"),
            name: row.text("name").expect("name").to_string(),
            hospital_id: row.int("hospital_id").expect("hospital_id"),
            region_id: row.int("region_id").expect("region_id"),
            clinic: row.text("clinic").expect("clinic").to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_expected_cardinalities() {
        let config = RegistryConfig {
            regions: 2,
            hospitals_per_region: 2,
            mdts_per_hospital: 2,
            patients_per_mdt: 5,
            seed: 42,
        };
        let db = generate(&config);
        assert_eq!(db.count("regions").unwrap(), 2);
        assert_eq!(db.count("hospitals").unwrap(), 4);
        assert_eq!(db.count("mdts").unwrap(), 8);
        assert_eq!(db.count("patients").unwrap(), 40);
        assert_eq!(db.count("tumours").unwrap(), 40);
        assert!(db.count("treatments").unwrap() <= 40);
    }

    #[test]
    fn tenant_scaling_reaches_the_target() {
        // 32 regions × 8 hospitals × 4 MDTs: 1 024 tenants.
        let config = RegistryConfig {
            regions: 32,
            hospitals_per_region: 8,
            mdts_per_hospital: 4,
            patients_per_mdt: 1,
            seed: 7,
        };
        let db = generate(&config);
        assert_eq!(db.count("mdts").unwrap(), 1024);
        // Every tenant name is distinct — each one becomes a distinct
        // clearance, i.e. a distinct interned privilege set.
        let mdts = list_mdts(&db);
        let mut names: Vec<&str> = mdts.iter().map(|m| m.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 1024);
    }

    #[test]
    fn generation_is_deterministic() {
        let config = RegistryConfig::default();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(
            a.count("treatments").unwrap(),
            b.count("treatments").unwrap()
        );
        let pa = a.select("patients", |_| true).unwrap();
        let pb = b.select("patients", |_| true).unwrap();
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.cells(), y.cells());
        }
    }

    #[test]
    fn mdts_listable() {
        let db = generate(&RegistryConfig::default());
        let mdts = list_mdts(&db);
        assert_eq!(mdts.len(), 12);
        assert!(mdts
            .iter()
            .all(|m| !m.name.is_empty() && !m.clinic.is_empty()));
        // Names are unique.
        let mut names: Vec<&str> = mdts.iter().map(|m| m.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }
}
