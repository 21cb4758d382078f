# Regenerate the fuzz seed corpus into an output directory and require it
# to be byte-identical to the committed corpus (fuzz/corpus/) and to the
# same-named fixtures in tests/data/rlut/ and tests/data/serialize/. The
# seeds come from the real serializers and embed both RLut::fingerprint
# and plan_fingerprint, so this one check pins the model, LUT and plan
# formats.
#
#   cmake -DGEN=<make_fuzz_seeds binary> -DSRC=<repo root>
#         -DOUT=<output dir> -P tools/check_fuzz_seeds.cmake

file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${GEN}" "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "make_fuzz_seeds exited with ${rc}")
endif()

set(compared 0)
set(failed 0)
macro(expect_same generated committed)
  math(EXPR compared "${compared} + 1")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${generated}" "${committed}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(SEND_ERROR "not byte-identical to make_fuzz_seeds output: "
                       "${committed}")
    math(EXPR failed "${failed} + 1")
  endif()
endmacro()

# Every generated seed is committed, byte for byte.
file(GLOB_RECURSE generated RELATIVE "${OUT}" "${OUT}/*")
foreach(rel IN LISTS generated)
  expect_same("${OUT}/${rel}" "${SRC}/fuzz/corpus/${rel}")
endforeach()

# Every unit-test fixture equals the seed of the same name.
foreach(format IN ITEMS rlut serialize)
  file(GLOB fixtures RELATIVE "${SRC}/tests/data/${format}"
       "${SRC}/tests/data/${format}/*")
  foreach(name IN LISTS fixtures)
    expect_same("${OUT}/fuzz_${format}/${name}"
                "${SRC}/tests/data/${format}/${name}")
  endforeach()
endforeach()

message(STATUS "compared ${compared} files, ${failed} differ")
if(failed EQUAL 0)
  file(REMOVE_RECURSE "${OUT}")
endif()
