# Checks that the committed bench trail and the docs agree:
#   * every BENCH_*.json that EXPERIMENTS.md or README.md names is committed
#     at the repo root;
#   * every BENCH_*.json a bench/*.cpp writes is named in EXPERIMENTS.md.
# Run as: cmake -DREPO=<repo root> -P bench_trail.cmake

if(NOT DEFINED REPO)
  message(FATAL_ERROR "pass -DREPO=<repo root>")
endif()

set(json_regex "BENCH_[A-Za-z0-9_]+\\.json")
set(failures "")

foreach(doc EXPERIMENTS.md README.md)
  file(READ "${REPO}/${doc}" text)
  string(REGEX MATCHALL "${json_regex}" cited "${text}")
  list(REMOVE_DUPLICATES cited)
  foreach(name IN LISTS cited)
    if(NOT EXISTS "${REPO}/${name}")
      list(APPEND failures "${doc} names ${name}, which is not at the repo root")
    endif()
  endforeach()
endforeach()

file(READ "${REPO}/EXPERIMENTS.md" experiments)
file(GLOB benches "${REPO}/bench/*.cpp")
foreach(src IN LISTS benches)
  file(READ "${src}" text)
  string(REGEX MATCHALL "ofstream\\(\"${json_regex}\"\\)" writes "${text}")
  foreach(write IN LISTS writes)
    string(REGEX MATCH "${json_regex}" name "${write}")
    string(FIND "${experiments}" "${name}" at)
    if(at EQUAL -1)
      get_filename_component(bench "${src}" NAME)
      list(APPEND failures "${bench} writes ${name}, which EXPERIMENTS.md does not name")
    endif()
  endforeach()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "bench trail out of step with the docs:\n  ${report}")
endif()
