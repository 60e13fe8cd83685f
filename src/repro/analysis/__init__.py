"""repro.analysis — sequential program analyses feeding the PDG/PS-PDG."""
