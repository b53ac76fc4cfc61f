"""Common vocabulary IRIs used across the suite."""

from .rdf import IRI, Term, Triple

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"
DCT = "http://purl.org/dc/terms/"
DCAT = "http://www.w3.org/ns/dcat#"
FOAF = "http://xmlns.com/foaf/0.1/"
SKOS = "http://www.w3.org/2004/02/skos/core#"
DQV = "http://www.w3.org/ns/dqv#"
PROV = "http://www.w3.org/ns/prov#"

# artifact-owned vocabulary for platform-internal properties and metrics
ODN = "http://odcat.example/ns#"

RDF_TYPE = RDF + "type"
RDFS_LABEL = RDFS + "label"
SKOS_PREFLABEL = SKOS + "prefLabel"

DCAT_DATASET = DCAT + "Dataset"
DCAT_CATALOG = DCAT + "Catalog"
DCAT_DISTRIBUTION_CLASS = DCAT + "Distribution"
DCAT_DISTRIBUTION = DCAT + "distribution"
DCAT_DATASET_LINK = DCAT + "dataset"
DCAT_KEYWORD = DCAT + "keyword"
DCAT_THEME = DCAT + "theme"
DCAT_ACCESS_URL = DCAT + "accessURL"
DCAT_DOWNLOAD_URL = DCAT + "downloadURL"
DCAT_MEDIA_TYPE = DCAT + "mediaType"
DCAT_BYTE_SIZE = DCAT + "byteSize"
DCAT_CONTACT_POINT = DCAT + "contactPoint"

DCT_TITLE = DCT + "title"
DCT_DESCRIPTION = DCT + "description"
DCT_IDENTIFIER = DCT + "identifier"
DCT_ISSUED = DCT + "issued"
DCT_MODIFIED = DCT + "modified"
DCT_PUBLISHER = DCT + "publisher"
DCT_SPATIAL = DCT + "spatial"
DCT_TEMPORAL = DCT + "temporal"
DCT_FORMAT = DCT + "format"
DCT_LICENSE = DCT + "license"
DCT_LANGUAGE = DCT + "language"
DCT_ACCESS_RIGHTS = DCT + "accessRights"

FOAF_NAME = FOAF + "name"

DQV_QUALITY_MEASUREMENT = DQV + "QualityMeasurement"
DQV_IS_MEASUREMENT_OF = DQV + "isMeasurementOf"
DQV_VALUE = DQV + "value"
DQV_COMPUTED_ON = DQV + "computedOn"
PROV_GENERATED_AT = PROV + "generatedAtTime"

ODN_TRANSLATION_STARTED = ODN + "translationStarted"
ODN_TRANSLATION_COMPLETED = ODN + "translationCompleted"


_TYPE = IRI(RDF_TYPE)
_DATASET = IRI(DCAT_DATASET)


def dataset_subjects(graph: list[Triple]) -> list[Term]:
    """The `dcat:Dataset` subjects of a graph, each once, in document order."""
    return list(dict.fromkeys(s for s, p, o in graph if p == _TYPE and o == _DATASET))
